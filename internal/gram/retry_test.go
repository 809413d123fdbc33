package gram

import (
	"errors"
	"fmt"
	"testing"

	"vmgrid/internal/obs"
	"vmgrid/internal/retry"
	"vmgrid/internal/sim"
)

func TestSubmitUnreachableIsUnavailable(t *testing.T) {
	g := newGrid(t)
	if err := g.net.SetLinkUp("front", "compute", false); err != nil {
		t.Fatal(err)
	}
	var got error
	done := false
	if err := g.client.Submit("compute", Job{
		Name: "x", User: "u", Run: func(_ obs.SpanContext, d func(error)) { d(nil) },
	}, func(err error) { got = err; done = true }); err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if !done {
		t.Fatal("submission never resolved")
	}
	if !errors.Is(got, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable (request never left)", got)
	}
}

func TestSubmitRetrySucceedsAfterHeal(t *testing.T) {
	g := newGrid(t)
	if err := g.net.SetLinkUp("front", "compute", false); err != nil {
		t.Fatal(err)
	}
	// Heal the partition while the client is backing off.
	g.k.After(3*sim.Second, func() { _ = g.net.SetLinkUp("front", "compute", true) })

	ran := false
	var got error
	done := false
	err := g.client.SubmitRetry("compute", Job{
		Name: "x", User: "u", Run: func(_ obs.SpanContext, d func(error)) { ran = true; d(nil) },
	}, retry.Policy{MaxAttempts: 6, Backoff: sim.Second}, func(err error) {
		got = err
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if !done {
		t.Fatal("submission never resolved")
	}
	if got != nil {
		t.Fatalf("err = %v after the partition healed", got)
	}
	if !ran {
		t.Fatal("job never ran")
	}
}

func TestSubmitRetryExhaustionKeepsUnavailable(t *testing.T) {
	g := newGrid(t)
	if err := g.net.SetLinkUp("front", "compute", false); err != nil {
		t.Fatal(err)
	}
	var got error
	done := false
	err := g.client.SubmitRetry("compute", Job{
		Name: "x", User: "u", Run: func(_ obs.SpanContext, d func(error)) { d(nil) },
	}, retry.Policy{MaxAttempts: 3, Backoff: 100 * sim.Millisecond}, func(err error) {
		got = err
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if !done {
		t.Fatal("submission never resolved")
	}
	if !errors.Is(got, ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable after exhaustion", got)
	}
}

func TestSubmitRetryDoesNotReplayJobFailures(t *testing.T) {
	g := newGrid(t)
	attempts := 0
	jobErr := fmt.Errorf("application exploded")
	var got error
	done := false
	err := g.client.SubmitRetry("compute", Job{
		Name: "x", User: "u", Run: func(_ obs.SpanContext, d func(error)) {
			attempts++
			d(jobErr)
		},
	}, retry.Policy{MaxAttempts: 5, Backoff: 100 * sim.Millisecond}, func(err error) {
		got = err
		done = true
	})
	if err != nil {
		t.Fatal(err)
	}
	g.k.Run()
	if !done {
		t.Fatal("submission never resolved")
	}
	if attempts != 1 {
		t.Errorf("job ran %d times; a job that RAN and failed must never be replayed", attempts)
	}
	if !errors.Is(got, jobErr) {
		t.Errorf("err = %v, want the job's own error", got)
	}
	if errors.Is(got, ErrUnavailable) {
		t.Error("job failure mislabeled as unavailability")
	}
}
