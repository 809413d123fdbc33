package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"vmgrid/internal/wire"
)

// The daemon workload's fixed load. The op count is fixed rather than
// the duration because the daemon slows as it ages: it retains every
// span and telemetry sample, so the same op costs more late in a run.
const (
	// lifecyclesPerPass is how many session lifecycles the closed-loop
	// writer runs against one fresh daemon.
	lifecyclesPerPass = 200
	// readRate is the open-loop reader's request rate, cycling top,
	// status and ping.
	readRate = 100
	// stopTimeout bounds the daemon's graceful shutdown after SIGTERM.
	stopTimeout = 10 * time.Second
	// startTimeout bounds the daemon's start until it prints its address.
	startTimeout = 60 * time.Second
)

var computeNodes = []string{"compute1", "compute2"}

// addrWatcher is the daemon's stdout: it passes the address vmgridd
// prints once it is serving ("vmgridd: serving on ADDR ...") to addr.
type addrWatcher struct {
	buf  []byte
	addr chan<- string // buffered; nil once the address is sent
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	if a.addr == nil {
		return len(p), nil
	}
	a.buf = append(a.buf, p...)
	const marker = "serving on "
	if i := bytes.Index(a.buf, []byte(marker)); i >= 0 {
		rest := a.buf[i+len(marker):]
		if j := bytes.IndexAny(rest, " \n"); j >= 0 {
			a.addr <- string(rest[:j])
			a.buf, a.addr = nil, nil
		}
	}
	return len(p), nil
}

// daemon is one running vmgridd child.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	use     usage
	waitErr error
}

// startDaemon spawns `vmgridd -demo -chunked` on a free loopback port
// and waits until it prints the address it bound.
func startDaemon(bin string, seed int64) (*daemon, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(bin, "-demo", "-chunked", "-listen", "127.0.0.1:0",
		"-seed", strconv.FormatInt(seed, 10))
	cmd.Stdout = &addrWatcher{addr: addr}
	cmd.Stderr = os.Stderr
	if err := startChild(cmd); err != nil {
		return nil, fmt.Errorf("start vmgridd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.use, d.waitErr = waitChild(cmd)
		close(d.exited)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		return nil, errors.New("vmgridd exited before it was serving")
	case <-time.After(startTimeout):
		d.stop()
		return nil, errors.New("vmgridd did not print its address")
	}
}

// stop sends SIGTERM, kills the daemon if it has not drained within
// stopTimeout, and returns its resource usage once it is reaped.
func (d *daemon) stop() (usage, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return d.use, errors.New("vmgridd ignored SIGTERM")
	}
	if d.waitErr == nil && !d.use.exited {
		d.waitErr = errors.New("vmgridd exited with an error")
	}
	return d.use, d.waitErr
}

// openLoop issues request i at start + i*period whether or not earlier
// requests were slow, and times each request from its due time, so a
// stall counts against every request that fell due during it.
type openLoop struct {
	period time.Duration
	now    func() time.Time
	// sleep waits d, returning false early if stop closes.
	sleep func(d time.Duration, stop <-chan struct{}) bool
}

// loopSample is one open-loop request: latency runs from its due time
// to the reply, lag from its due time to when it was sent, and service
// from send to reply.
type loopSample struct {
	i                     int
	latency, lag, service time.Duration
	err                   error
}

func (l openLoop) run(stop <-chan struct{}, issue func(i int) error) []loopSample {
	start := l.now()
	var out []loopSample
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * l.period)
		if d := due.Sub(l.now()); d > 0 && !l.sleep(d, stop) {
			return out
		}
		select {
		case <-stop:
			return out
		default:
		}
		sent := l.now()
		err := issue(i)
		done := l.now()
		out = append(out, loopSample{i: i, latency: done.Sub(due), lag: sent.Sub(due), service: done.Sub(sent), err: err})
	}
}

func sleepOrStop(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

var readOps = []string{"top", "status", "ping"}

// daemonPass is one fresh daemon driven through the fixed load.
type daemonPass struct {
	setupS, wallS, allocMB float64
	use                    usage
	ops                    int // completed on both connections
	attempted, failed      int
	failures               []string
	writeMs                map[string][]float64 // per lifecycle op
	lifecycleMs            []float64            // whole lifecycles, in order
	reads                  []loopSample
	// The traced run's end-of-run reads.
	spans, scrapes      int
	virtualS, chunkRate float64
}

func (p *daemonPass) fail(what string, err error) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf("%s: %v", what, err))
}

// expect counts one output check.
func (p *daemonPass) expect(what string, ok bool, got any) {
	p.attempted++
	if !ok {
		p.fail(what, fmt.Errorf("got %v", got))
	}
}

// timed runs one lifecycle op and records its latency.
func (p *daemonPass) timed(op string, fn func() error) error {
	p.attempted++
	t0 := time.Now()
	err := fn()
	if err != nil {
		p.fail(op, err)
		return err
	}
	p.ops++
	p.writeMs[op] = append(p.writeMs[op], msSince(t0))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// lifecyclePlan returns the run of each of n lifecycles: the same set of
// CPU times and data reads for every seed, in an order the seed shuffles,
// so that a seed changes the mix each op meets but not the total work.
func lifecyclePlan(rng *rand.Rand, n int) []wire.RunParams {
	plan := make([]wire.RunParams, n)
	for i := range plan {
		plan[i] = wire.RunParams{
			CPUSeconds: 5 + 55*(float64(i)+0.5)/float64(n),
			Reads:      10 + i*37%50,
			ReadBytes:  int64(4+i*13%28) << 20,
			Mount:      "data",
		}
	}
	rng.Shuffle(n, func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	return plan
}

// writer runs the closed loop: each lifecycle waits for every reply
// before its next op. Sessions alternate local and staged image access
// (the seed picks which comes first) and run the seed's lifecycle plan.
// Local sessions ping-pong between the compute nodes.
func (p *daemonPass) writer(c *wire.Client, seed int64, lifecycles int) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x70657266))
	first := rng.IntN(2)
	for i, run := range lifecyclePlan(rng, lifecycles) {
		access := [2]string{"local", "staged"}[(i+first)%2]
		run.Name = fmt.Sprintf("job%d", i)
		t0 := time.Now()
		if p.lifecycle(c, access, run) {
			p.lifecycleMs = append(p.lifecycleMs, msSince(t0))
		}
	}
}

// lifecycle runs one session from creation to shutdown and reports
// whether every op succeeded.
func (p *daemonPass) lifecycle(c *wire.Client, access string, run wire.RunParams) bool {
	var info wire.SessionInfo
	err := p.timed("new-session", func() (err error) {
		info, err = c.NewSession(wire.SessionParams{
			User: "bench", FrontEnd: "front", Image: "rh72",
			Mode: "restore", Disk: "non-persistent", Access: access,
			DataNode: "data", DataFile: "dataset",
		})
		return err
	})
	if err != nil {
		return false
	}
	_, ready := info.Events["ready"]
	p.expect("session reaches ready", ready && info.State == "running", info.State)
	run.Session = info.Name
	type step struct {
		op string
		fn func() error
	}
	steps := []step{{"run", func() error { _, err := c.Run(run); return err }}}
	if access == "local" {
		target := computeNodes[0]
		if info.Node == target {
			target = computeNodes[1]
		}
		steps = append(steps, step{"migrate", func() error {
			moved, err := c.Migrate(info.Name, target)
			if err == nil {
				p.expect("migrate lands on its target", moved.Node == target, moved.Node)
			}
			return err
		}})
	}
	steps = append(steps,
		step{"hibernate", func() error { _, err := c.Hibernate(info.Name); return err }},
		step{"wake", func() error { _, err := c.Wake(info.Name); return err }},
		step{"shutdown", func() error { return c.Shutdown(info.Name) }},
	)
	for _, s := range steps {
		if err := p.timed(s.op, s.fn); err != nil {
			if s.op != "shutdown" {
				_ = c.Shutdown(info.Name) // best effort: leave no session behind
			}
			return false
		}
	}
	return true
}

// reader runs the open loop of dashboard reads until stop closes.
func (p *daemonPass) reader(c *wire.Client, stop <-chan struct{}) {
	l := openLoop{period: time.Second / readRate, now: time.Now, sleep: sleepOrStop}
	p.reads = l.run(stop, func(i int) error {
		switch readOps[i%len(readOps)] {
		case "top":
			_, err := c.Top()
			return err
		case "status":
			_, err := c.Status()
			return err
		default:
			return c.Ping()
		}
	})
}

// runDaemonPass starts a fresh daemon, drives the fixed load over two
// loopback connections, checks the final state, and stops the daemon.
// final adds the traced run's end-of-run reads (spans, top, status).
func runDaemonPass(bin string, seed int64, lifecycles int, final bool) (_ *daemonPass, err error) {
	p := &daemonPass{writeMs: map[string][]float64{}}
	start := time.Now()
	d, err := startDaemon(bin, seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		use, stopErr := d.stop()
		p.use = use
		if err == nil && stopErr != nil {
			err = stopErr
		}
	}()
	wc, err := wire.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer wc.Close()
	if err := wc.Ping(); err != nil {
		return nil, fmt.Errorf("first ping: %w", err)
	}
	p.setupS = time.Since(start).Seconds()
	rc, err := wire.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer rc.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.reader(rc, stop)
	}()
	t0 := time.Now()
	p.writer(wc, seed, lifecycles)
	p.wallS = time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&after)
	p.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	for _, r := range p.reads {
		p.attempted++
		if r.err != nil {
			p.fail(readOps[r.i%len(readOps)], r.err)
		} else {
			p.ops++
		}
	}

	st, err := wc.Status()
	p.attempted++
	if err != nil {
		p.fail("final status", err)
		return p, nil
	}
	p.expect("no session left", len(st.Sessions) == 0, len(st.Sessions))
	for _, n := range st.Nodes {
		for _, name := range computeNodes {
			if n.Name == name {
				p.expect(name+" runnable 0", n.Runnable == 0, n.Runnable)
			}
		}
	}
	if final {
		p.virtualS = st.VirtualSec
		p.finalReads(wc, d.addr)
	}
	return p, nil
}

// finalReads records the retained span count and the telemetry and
// chunk-cache counters the daemon serves.
func (p *daemonPass) finalReads(c *wire.Client, addr string) {
	p.attempted += 2
	var err error
	if p.spans, err = countSpans(addr); err != nil {
		p.fail("spans", err)
	}
	top, err := c.Top()
	if err != nil {
		p.fail("top", err)
		return
	}
	p.scrapes = top.Scrapes
	if top.Staging != nil {
		p.chunkRate = top.Staging.HitRate
	}
}

// countSpans sends the spans op on a connection of its own: after a few
// hundred lifecycles the reply outgrows wire.Client's 4 MiB line limit.
func countSpans(addr string) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return 0, err
	}
	if err := json.NewEncoder(conn).Encode(wire.Request{ID: 1, Op: "spans"}); err != nil {
		return 0, err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return 0, err
	}
	var resp wire.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return 0, err
	}
	if resp.Error != "" {
		return 0, errors.New(resp.Error)
	}
	var spans []json.RawMessage
	if err := json.Unmarshal(resp.Data, &spans); err != nil {
		return 0, err
	}
	return len(spans), nil
}

// writeLatencies returns the latency, in ms, of every lifecycle op.
func (p *daemonPass) writeLatencies() []float64 {
	var ms []float64
	for _, op := range p.writeMs {
		ms = append(ms, op...)
	}
	return ms
}

// readLatencies returns the latency from due time, in ms, of the
// top and status reads.
func (p *daemonPass) readLatencies() []float64 {
	var ms []float64
	for _, r := range p.reads {
		if r.err == nil && readOps[r.i%len(readOps)] != "ping" {
			ms = append(ms, float64(r.latency)/1e6)
		}
	}
	return ms
}

// setPassLatency reports as <kind>_p50_ms and <kind>_p99_ms the median
// over passes of each pass's median and tail (tail99). Taking each pass's
// percentiles first keeps one disturbed pass from setting the run's tail.
func setPassLatency(res *result, kind string, passes [][]float64, what string) {
	var p50s, tails []float64
	lowest := 99.0
	for _, ms := range passes {
		p50s = append(p50s, summarize(ms).P50)
		tail, pct := tail99(ms)
		tails = append(tails, tail)
		if pct < lowest {
			lowest = pct
		}
	}
	detail := fmt.Sprintf("median over %d daemons of each one's %s", len(passes), what)
	res.set(kind+"_p50_ms", median(p50s), detail+" p50")
	detail += fmt.Sprintf(" p%g", lowest)
	if lowest != 99 {
		detail += fmt.Sprintf(", as fewer than %d samples lie beyond a daemon's p99", minBeyond)
	}
	res.set(kind+"_p99_ms", median(tails), detail)
}

// runDaemonWorkload runs fresh-daemon passes for the run's time budget
// (at least minPasses) and reports the end-to-end metrics as medians
// over passes.
func runDaemonWorkload(w io.Writer, o options) (*result, error) {
	res := newResult()
	var walls, cpus, allocs, rss, sets, rates, totals []float64
	var writes, reads [][]float64
	start := time.Now()
	for len(walls) < minPasses || time.Since(start).Seconds()+median(totals) <= o.seconds {
		t0 := time.Now()
		p, err := runDaemonPass(o.vmgridd, o.seed, lifecyclesPerPass, false)
		if err != nil {
			return nil, err
		}
		totals = append(totals, time.Since(t0).Seconds())
		wMs, rMs := p.writeLatencies(), p.readLatencies()
		fmt.Fprintf(os.Stderr, "daemon pass %d: wall %.3f s, vmgridd cpu %.3f s, write %s, read %s\n",
			len(totals), p.wallS, p.use.cpuS, summarize(wMs), summarize(rMs))
		res.attempted += p.attempted
		res.failed += p.failed
		for _, f := range p.failures {
			fmt.Fprintln(w, "CHECK FAILED", f)
		}
		walls = append(walls, p.wallS)
		cpus = append(cpus, p.use.cpuS)
		allocs = append(allocs, p.allocMB)
		rss = append(rss, p.use.rssMB)
		sets = append(sets, p.setupS)
		rates = append(rates, float64(p.ops)/p.wallS)
		writes = append(writes, wMs)
		reads = append(reads, rMs)
	}
	perPass := fmt.Sprintf("median of %d daemons", len(walls))
	res.set("wall_s", median(walls), perPass+fmt.Sprintf(": %d lifecycles", lifecyclesPerPass))
	res.set("cpu_s", median(cpus), perPass+" (vmgridd process)")
	res.set("alloc_mb", median(allocs), perPass+" (load generator: wire encoding and decoding)")
	res.set("peak_rss_mb", median(rss), perPass+" (vmgridd process)")
	res.set("setup_s", median(sets), perPass+": spawn until the first ping")
	res.set("ops_per_s", median(rates), perPass+": wire ops on both connections")
	setPassLatency(res, "write", writes, "lifecycle op")
	setPassLatency(res, "read", reads, "top and status (from due time)")
	return res, nil
}
