package core

import "fmt"

// State is a session's position in the Figure 3 life cycle. It replaces
// the stringly-typed state the API started with; the wire protocol
// still speaks the lower-case names via String.
type State int

// Session states.
const (
	// StatePending: submitted, working through steps 1-5.
	StatePending State = iota + 1
	// StateRunning: ready; the guest executes workloads.
	StateRunning
	// StateHibernated: suspended to a memory image on the node's store.
	StateHibernated
	// StateCrashed: the hosting node failed; un-checkpointed guest state
	// is gone. A supervisor may still recover the session.
	StateCrashed
	// StateRecovering: a supervisor is restoring the session from its
	// last checkpoint.
	StateRecovering
	// StateDead: shut down (or failed during setup); terminal.
	StateDead
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateHibernated:
		return "hibernated"
	case StateCrashed:
		return "crashed"
	case StateRecovering:
		return "recovering"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// CanRun reports whether workloads may be submitted.
func (s State) CanRun() bool { return s == StateRunning }

// CanMigrate reports whether Migrate is valid: the complete-state
// encapsulation argument of §2 — a session moves whenever its full
// state (memory image + COW diff) is materializable, running or
// hibernated.
func (s State) CanMigrate() bool { return s == StateRunning || s == StateHibernated }

// CanHibernate reports whether Hibernate is valid.
func (s State) CanHibernate() bool { return s == StateRunning }

// CanWake reports whether Wake is valid.
func (s State) CanWake() bool { return s == StateHibernated }
