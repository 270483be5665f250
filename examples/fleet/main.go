// Fleet: the federated Command Center hierarchy in one process — three node
// services listening on localhost TCP behind fault-injection proxies (as
// cmd/nodesvc would in separate processes), a fleet coordinator dialing
// through them, and a scripted chaos sequence: allocate the 100W pool, kill
// a node mid-run, watch its watts reclaimed within one epoch and
// redistributed, heal it, and watch the budget-safe, epoch-fenced
// re-admission.
//
// The program exits non-zero if the cluster invariant — Σ granted node
// budgets ≤ cluster budget at every epoch — is ever violated, if the killed
// node's watts are not reclaimed and the node not re-admitted, or if its
// floor grant is missing from the audit log as a set-budget event with
// detail readmit. CI runs it as the fleet chaos smoke.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"powerchief/internal/cmp"
	"powerchief/internal/dist"
	"powerchief/internal/fault"
	"powerchief/internal/fleet"
	"powerchief/internal/rpc"
	"powerchief/internal/telemetry"
)

const (
	budget = cmp.Watts(100)
	floor  = cmp.Watts(10)
)

func main() {
	// Three synthetic nodes with different work intensities, each behind its
	// own chaos proxy.
	loads := []float64{1, 1.5, 2}
	var proxies []*dist.ChaosProxy
	var transports []fleet.Transport
	for i, load := range loads {
		name := fmt.Sprintf("node-%d", i)
		svc, err := fleet.NewNodeService(name, fleet.NewSynthBackend(load, 0))
		if err != nil {
			log.Fatal(err)
		}
		defer svc.Close()
		backend, err := svc.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		proxy := dist.NewChaosProxy(backend)
		front, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer proxy.Close()
		proxies = append(proxies, proxy)
		fmt.Printf("node %s on %s (load %.2f)\n", name, front, load)

		node, err := fleet.DialNode(front, rpc.ClientOptions{
			DialTimeout: 500 * time.Millisecond,
			CallTimeout: 300 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer node.Close()
		transports = append(transports, node)
	}

	audit := telemetry.NewAuditLog(0)
	coord, err := fleet.NewCoordinator(fleet.Options{
		Budget: budget, Floor: floor, SuspectAfter: 2, Audit: audit,
	}, transports...)
	if err != nil {
		log.Fatal(err)
	}
	reb := fleet.NewRebalance()

	// One control epoch: adjust, then check the cluster invariant.
	violations := 0
	epoch := func(tag string) {
		if _, err := coord.Adjust(reb); err != nil && !fault.IsDegraded(err) {
			log.Fatalf("%s: %v", tag, err)
		}
		draw := coord.Draw()
		ok := draw <= budget+1e-9
		if !ok {
			violations++
		}
		fmt.Printf("[%s] Σ granted %6.2fW / %.0fW  healths %v\n", tag, float64(draw), float64(budget), coord.Healths())
	}

	fmt.Println("\n-- cold start: metric-weighted allocation of the pool --")
	epoch("alloc")
	epoch("steady")

	fmt.Println("\n-- kill node-0 (partition: state and epoch kept) --")
	proxies[0].Partition()
	epoch("suspect")
	epoch("reclaim")
	reclaimed := coord.Granted()["node-0"] == 0
	if !reclaimed {
		fmt.Println("FAIL: killed node still holds watts after the reclaim epoch")
	}
	epoch("degraded")

	fmt.Println("\n-- heal node-0: fenced, budget-safe re-admission at the floor --")
	proxies[0].Restore("")
	mark := audit.LastSeq()
	epoch("readmit")
	// The re-admission is one audited plan: the donor cuts that make room,
	// then node-0's floor grant, each a set-budget event with detail readmit.
	granted := false
	for _, e := range audit.Since(mark) {
		if e.Kind != telemetry.EventSetBudget || e.Detail != "readmit" {
			continue
		}
		fmt.Printf("  audit #%d %s %s %.2fW -> %.2fW (%s)\n", e.Seq, e.Kind, e.Node, e.PrevWatts, e.GrantedWatts, e.Detail)
		granted = granted || e.Node == "node-0" && cmp.Watts(e.GrantedWatts) == floor
	}
	epoch("cooldown")
	readmitted := coord.Healths()["node-0"] == fault.Healthy
	if !readmitted {
		fmt.Println("FAIL: healed node was not re-admitted")
	}
	if !granted {
		fmt.Println("FAIL: node-0's floor grant is not an audited set-budget event with detail readmit")
	}

	q, r, f := coord.Counts()
	fmt.Printf("\n%d quarantines, %d re-admissions, %d fenced stale reports, %d audit events\n",
		q, r, f, len(audit.Events()))
	if violations > 0 || !reclaimed || !readmitted || !granted {
		fmt.Printf("FAIL: %d invariant violations\n", violations)
		os.Exit(1)
	}
	fmt.Println("OK: Σ granted ≤ budget at every epoch; reclaim and re-admission on time")
}
