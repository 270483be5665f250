package powerchief_test

import (
	"fmt"
	"time"

	"powerchief"
)

// ExampleRun shows the core comparison of the paper: the same Sirius
// pipeline under the same 13.56 W budget and high load, with and without
// PowerChief.
func ExampleRun() {
	base := powerchief.Scenario{
		App:      powerchief.Sirius(),
		Level:    powerchief.MidLevel,
		Budget:   13.56,
		Source:   powerchief.ConstantLoad(powerchief.HighLoad),
		Duration: 300 * time.Second,
		Seed:     1,
	}
	baseline, err := powerchief.Run(base)
	if err != nil {
		fmt.Println(err)
		return
	}
	managed := base
	managed.Policy = powerchief.PowerChiefPolicy()
	boosted, err := powerchief.Run(managed)
	if err != nil {
		fmt.Println(err)
		return
	}
	avg, _ := powerchief.Improvement(baseline, boosted)
	fmt.Printf("all queries completed: %v\n", boosted.Completed == boosted.Submitted)
	fmt.Printf("PowerChief at least 2x better under high load: %v\n", avg >= 2)
	fmt.Printf("budget respected: %v\n", boosted.AvgPower <= managed.Budget)
	// Output:
	// all queries completed: true
	// PowerChief at least 2x better under high load: true
	// budget respected: true
}

// ExampleApp shows how to define a custom multi-stage application and
// validate it.
func ExampleApp() {
	app := powerchief.App{
		Name: "etl",
		Stages: []powerchief.StageProfile{
			{Name: "Extract", Work: powerchief.WorkModel{Median: 50 * time.Millisecond, Sigma: 0.2}, MemBound: 0.4},
			{Name: "Transform", Work: powerchief.WorkModel{Median: 400 * time.Millisecond, Sigma: 0.5}, MemBound: 0.2},
			{Name: "Load", Work: powerchief.WorkModel{Median: 80 * time.Millisecond, Sigma: 0.3}, MemBound: 0.5},
		},
	}
	fmt.Println("valid:", app.Validate() == nil)
	fmt.Println("heaviest stage:", app.Stages[app.HeaviestStage()].Name)
	// Output:
	// valid: true
	// heaviest stage: Transform
}

// ExampleApp_video defines a video-analysis pipeline — Decode → Detect →
// Annotate — with hand-written demand distributions and runs it under
// PowerChief at high load against the static baseline.
func ExampleApp_video() {
	video := powerchief.App{
		Name: "video-analysis",
		Stages: []powerchief.StageProfile{
			// Decode is cheap and scales almost linearly with frequency.
			{Name: "Decode", Work: powerchief.WorkModel{Median: 80 * time.Millisecond, Sigma: 0.2}, MemBound: 0.1},
			// Detection dominates and is partly memory bound.
			{Name: "Detect", Work: powerchief.WorkModel{Median: 600 * time.Millisecond, Sigma: 0.5}, MemBound: 0.3},
			// Annotation is moderate with a long tail.
			{Name: "Annotate", Work: powerchief.WorkModel{Median: 200 * time.Millisecond, Sigma: 0.6}, MemBound: 0.2},
		},
	}
	base := powerchief.Scenario{
		App: video, Level: powerchief.MidLevel, Budget: 13.56,
		Source: powerchief.ConstantLoad(powerchief.HighLoad), Duration: 600 * time.Second, Seed: 5,
	}
	baseline, err := powerchief.Run(base)
	if err != nil {
		fmt.Println(err)
		return
	}
	managed := base
	managed.Policy = powerchief.PowerChiefPolicy()
	boosted, err := powerchief.Run(managed)
	if err != nil {
		fmt.Println(err)
		return
	}
	avg, p99 := powerchief.Improvement(baseline, boosted)
	fmt.Printf("PowerChief better than baseline: %v\n", avg > 1 && p99 > 1)
	fmt.Printf("budget respected: %v\n", boosted.AvgPower <= managed.Budget)
	// Output:
	// PowerChief better than baseline: true
	// budget respected: true
}

// ExamplePolicyByName resolves policies by their registered names: the
// QoS-saving ones need a latency target, and an unknown name is refused
// with the list of registered ones.
func ExamplePolicyByName() {
	for _, name := range []string{"powerchief", "fairness"} {
		mk, err := powerchief.PolicyByName(name, 0)
		fmt.Println(name, err == nil && mk().Name() == name)
	}
	mk, err := powerchief.PolicyByName("saver", 2*time.Second)
	fmt.Println("saver", err == nil && mk().Name() == "saver")
	_, err = powerchief.PolicyByName("saver", 0)
	fmt.Println("saver without a QoS target:", err != nil)
	_, err = powerchief.PolicyByName("yolo", 0)
	fmt.Println(err)
	// Output:
	// powerchief true
	// fairness true
	// saver true
	// saver without a QoS target: true
	// replay: unknown policy "yolo" (policies: [powerchief freq-boost inst-boost baseline proportional fairness marginal pegasus saver])
}

// ExampleNewLiveCluster runs the framework as a real runtime with
// compressed time: workers are goroutines, the controller is a ticker.
func ExampleNewLiveCluster() {
	cluster, err := powerchief.NewLiveCluster(
		powerchief.Sirius(), nil, powerchief.MidLevel,
		powerchief.LiveOptions{Budget: 13.56, TimeScale: 0.001},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Close()

	agg := powerchief.NewAggregatorFor(cluster)
	cluster.OnComplete(agg.Ingest)
	done := make(chan struct{}, 1)
	cluster.OnComplete(func(q *powerchief.Query) { done <- struct{}{} })

	q := powerchief.NewQuery(1, cluster.Now(), [][]time.Duration{
		{300 * time.Millisecond},
		{130 * time.Millisecond},
		{700 * time.Millisecond},
	})
	if err := cluster.Submit(q); err != nil {
		fmt.Println(err)
		return
	}
	<-done
	fmt.Println("completed:", q.Completed())
	fmt.Println("records from all three stages:", len(q.Records) == 3)
	// Output:
	// completed: true
	// records from all three stages: true
}
