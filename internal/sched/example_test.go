package sched_test

import (
	"fmt"

	"vmgrid/internal/sched"
	"vmgrid/internal/sim"
)

// The owner-constraint language compiles into scheduler parameters —
// weights for proportional sharing, caps enforced by duty-cycling, and
// a reservation for the machine's owner.
func ExampleParsePolicy() {
	policy, err := sched.ParsePolicy(`
# Keep a quarter for interactive use; cap the untrusted guest.
policy desktop-owner
reserve 25%
limit vmm:guest-a 50%
weight vmm:guest-b 2
`)
	if err != nil {
		fmt.Println("parse:", err)
		return
	}
	fmt.Printf("policy %s: reserve %.0f%%, %d rules\n",
		policy.Name, policy.Reserve*100, len(policy.Rules))
	for _, r := range policy.Rules {
		kind := "limit"
		if r.Kind == sched.RuleWeight {
			kind = "weight"
		}
		fmt.Printf("  %s %s %.2g\n", kind, r.Target, r.Value)
	}
	// Output:
	// policy desktop-owner: reserve 25%, 2 rules
	//   limit vmm:guest-a 0.5
	//   weight vmm:guest-b 2
}

// Lottery scheduling gives probabilistic proportional shares: over many
// quanta, clients win in proportion to their tickets.
func ExampleNewLottery() {
	lot, err := sched.NewLottery(sim.NewRNG(1), 3, 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	const quanta = 100000
	wins := make([]int, lot.Clients())
	for i := 0; i < quanta; i++ {
		wins[lot.Next()]++
	}
	fmt.Printf("client A ~%.0f%%, client B ~%.0f%%\n", 100*float64(wins[0])/quanta, 100*float64(wins[1])/quanta)
	// Output:
	// client A ~75%, client B ~25%
}
