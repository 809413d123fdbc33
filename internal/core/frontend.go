package core

import (
	"errors"
	"fmt"
	"sort"

	"vmgrid/internal/guest"
)

// FrontEnd is the paper's Figure 3 service provider S: it owns a pool
// of virtual back-end sessions and multiplexes many grid users onto
// them, PUNCH-style. Users never hold accounts on the physical machines
// — the front end maps each job to a pooled VM and meters usage per
// grid identity (the logical user account model taken one step
// further: one logical user per job, many logical users per VM).
type FrontEnd struct {
	grid *Grid
	name string
	pool []*Session

	queue   []*pendingJob
	byUser  map[string]*userAccount
	nextJob int
}

type pendingJob struct {
	id       int
	user     string
	workload guest.Workload
	done     func(guest.TaskResult)
}

type userAccount struct {
	jobs        int
	userSeconds float64
}

// ErrNoBackends is returned when the pool has no running sessions.
var ErrNoBackends = errors.New("core: front end has no running back-ends")

// NewFrontEnd creates a provider front end named for diagnostics.
func NewFrontEnd(g *Grid, name string) *FrontEnd {
	return &FrontEnd{grid: g, name: name, byUser: make(map[string]*userAccount)}
}

// AddBackend places a running session into the pool.
func (f *FrontEnd) AddBackend(s *Session) error {
	if !s.State().CanRun() {
		return fmt.Errorf("%w: session %s is %s", ErrBadSession, s.Name(), s.State())
	}
	f.pool = append(f.pool, s)
	f.drain()
	return nil
}

// RemoveBackend takes a session out of the pool (it keeps running; the
// provider may shut it down separately).
func (f *FrontEnd) RemoveBackend(name string) {
	for i, s := range f.pool {
		if s.Name() == name {
			f.pool = append(f.pool[:i], f.pool[i+1:]...)
			return
		}
	}
}

// Backends returns the pool size.
func (f *FrontEnd) Backends() int { return len(f.pool) }

// Queued returns the number of jobs waiting for capacity.
func (f *FrontEnd) Queued() int { return len(f.queue) }

// Submit routes a user's job to the least-loaded running back-end, or
// queues it when all back-ends are saturated. done receives the result.
func (f *FrontEnd) Submit(user string, w guest.Workload, done func(guest.TaskResult)) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if user == "" {
		return errors.New("core: job without a user")
	}
	if len(f.pool) == 0 {
		return ErrNoBackends
	}
	f.nextJob++
	job := &pendingJob{id: f.nextJob, user: user, workload: w, done: done}
	f.queue = append(f.queue, job)
	f.drain()
	return nil
}

// maxTasksPerBackend bounds multiprogramming inside one pooled VM.
const maxTasksPerBackend = 2

// drain dispatches queued jobs onto back-ends with capacity.
func (f *FrontEnd) drain() {
	for len(f.queue) > 0 {
		target := f.pickBackend()
		if target == nil {
			return
		}
		job := f.queue[0]
		f.queue = f.queue[1:]
		f.dispatch(target, job)
	}
}

func (f *FrontEnd) pickBackend() *Session {
	var candidates []*Session
	for _, s := range f.pool {
		if s.State().CanRun() && s.VM().Guest().Tasks() < maxTasksPerBackend {
			candidates = append(candidates, s)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		ti, tj := candidates[i].VM().Guest().Tasks(), candidates[j].VM().Guest().Tasks()
		if ti != tj {
			return ti < tj
		}
		return candidates[i].Name() < candidates[j].Name()
	})
	return candidates[0]
}

func (f *FrontEnd) dispatch(target *Session, job *pendingJob) {
	acct := f.byUser[job.user]
	if acct == nil {
		acct = &userAccount{}
		f.byUser[job.user] = acct
	}
	acct.jobs++
	if err := target.Run(job.workload, func(res guest.TaskResult) {
		acct.userSeconds += res.UserSeconds
		if job.done != nil {
			job.done(res)
		}
		f.drain()
	}); err != nil {
		// The back-end refused (e.g. it died between pick and run):
		// push the job back and try another.
		acct.jobs--
		f.queue = append([]*pendingJob{job}, f.queue...)
		f.RemoveBackend(target.Name())
		f.drain()
	}
}

// UserReport returns per-user accounting: jobs submitted and guest work
// consumed, sorted by user.
func (f *FrontEnd) UserReport() []UserUsage {
	out := make([]UserUsage, 0, len(f.byUser))
	for user, acct := range f.byUser {
		out = append(out, UserUsage{User: user, Jobs: acct.jobs, UserSeconds: acct.userSeconds})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// UserUsage is one user's consumption through a front end.
type UserUsage struct {
	User        string
	Jobs        int
	UserSeconds float64
}
