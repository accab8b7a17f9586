package sched

import (
	"math/rand"
	"testing"

	"atlarge/internal/cluster"
	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// TestRunSourceMatchesRun pins that Run is RunSource over the trace plus the
// per-job stats: every aggregate metric must be bit-identical, for several
// policies and workload classes, and only Run keeps Result.Jobs.
func TestRunSourceMatchesRun(t *testing.T) {
	cases := []struct {
		class  workload.Class
		policy func() Policy
	}{
		{workload.ClassSynthetic, FCFS},
		{workload.ClassScientific, GreedyBackfill},
		{workload.ClassGaming, SJF},
		{workload.ClassIndustrial, EASYBackfill},
	}
	for _, tc := range cases {
		t.Run(tc.class.String()+"/"+tc.policy().Name(), func(t *testing.T) {
			tr := workload.StandardGenerator(tc.class).Generate(300, rand.New(rand.NewSource(5)))
			env1 := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
			want, err := NewSimulator(env1, tr.Clone(), tc.policy(), 1).Run()
			if err != nil {
				t.Fatal(err)
			}
			env2 := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
			src := tr.Clone().Source()
			got, err := NewSimulator(env2, nil, tc.policy(), 1).RunSource(src)
			if err != nil {
				t.Fatal(err)
			}
			if got.Jobs != nil {
				t.Error("streaming result should not materialize per-job stats")
			}
			if len(want.Jobs) != want.Completed {
				t.Errorf("Run kept %d job stats for %d completed jobs", len(want.Jobs), want.Completed)
			}
			if got.Completed != want.Completed || got.Completed != 300 {
				t.Errorf("Completed = %d, want %d", got.Completed, want.Completed)
			}
			if got.Makespan != want.Makespan {
				t.Errorf("Makespan = %v, want %v", got.Makespan, want.Makespan)
			}
			if got.MeanSlowdown != want.MeanSlowdown {
				t.Errorf("MeanSlowdown = %v, want %v", got.MeanSlowdown, want.MeanSlowdown)
			}
			if got.MeanResponse != want.MeanResponse {
				t.Errorf("MeanResponse = %v, want %v", got.MeanResponse, want.MeanResponse)
			}
			if got.MeanWait != want.MeanWait {
				t.Errorf("MeanWait = %v, want %v", got.MeanWait, want.MeanWait)
			}
			if got.UtilizationMean != want.UtilizationMean {
				t.Errorf("UtilizationMean = %v, want %v", got.UtilizationMean, want.UtilizationMean)
			}
			if got.DeadlineMisses != want.DeadlineMisses {
				t.Errorf("DeadlineMisses = %d, want %d", got.DeadlineMisses, want.DeadlineMisses)
			}
			if got.Horizon != want.Horizon {
				t.Errorf("Horizon = %v, want %v", got.Horizon, want.Horizon)
			}
		})
	}
}

// TestRunSourceBoundedMemory streams 10^5 jobs from a million-scale style
// population through the simulator and checks that per-job state is fully
// reclaimed: after the run, every job-keyed map must be empty — memory was
// proportional to in-flight jobs, not stream length.
func TestRunSourceBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 1e5 jobs")
	}
	const jobs = 100000
	pop := &workload.Population{
		Clients: 10000,
		Mix:     workload.SingleClass(workload.ClassGaming),
		Skew:    workload.Skew{Kind: "zipf"},
		// Aggregate ~20 jobs/s keeps the simulated span short while leaving
		// queueing dynamics intact.
		RateScale: 100.0 / 10000,
		Seed:      17,
	}
	src, err := pop.Source()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	env := cluster.NewHomogeneous(cluster.KindCluster, 2, 32, 16)
	s := NewSimulator(env, nil, GreedyBackfill(), 1)
	res, err := s.RunSource(workload.Take(src, jobs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != jobs {
		t.Fatalf("Completed = %d, want %d", res.Completed, jobs)
	}
	if res.Jobs != nil {
		t.Error("streaming run materialized per-job stats")
	}
	for name, n := range map[string]int{
		"jobLeft":     len(s.jobLeft),
		"jobStart":    len(s.jobStart),
		"jobStarted":  len(s.jobStarted),
		"pendingDeps": len(s.pendingDeps),
		"dependents":  len(s.dependents),
		"ServedWork":  len(s.ctx.ServedWork),
		"running":     len(s.running),
	} {
		if n != 0 {
			t.Errorf("%s retains %d entries after streaming run", name, n)
		}
	}
	if res.UtilizationMean <= 0 || res.UtilizationMean > 1 {
		t.Errorf("UtilizationMean = %v out of (0,1]", res.UtilizationMean)
	}
}

// listSource emits a fixed list of jobs, for protocol-violation tests.
type listSource struct {
	jobs []*workload.Job
	i    int
}

func (s *listSource) Next() *workload.Job {
	if s.i >= len(s.jobs) {
		return nil
	}
	j := s.jobs[s.i]
	s.i++
	return j
}

func (s *listSource) Name() string { return "list" }
func (s *listSource) Close()       {}

func TestRunSourceRejectsOutOfOrder(t *testing.T) {
	src := &listSource{jobs: []*workload.Job{
		mkJob(1, 100, 1, 10),
		mkJob(2, 50, 1, 10),
	}}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
	_, err := NewSimulator(env, nil, FCFS(), 1).RunSource(src)
	if err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

func TestRunSourceRejectsInvalidDAG(t *testing.T) {
	bad := mkJob(1, 0, 1, 10)
	bad.Tasks[0].Deps = []int{999}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
	_, err := NewSimulator(env, nil, FCFS(), 1).RunSource(&listSource{jobs: []*workload.Job{bad}})
	if err == nil {
		t.Fatal("invalid DAG accepted")
	}
}

// TestRunSourceEmpty checks the zero-job stream produces a sane empty result.
func TestRunSourceEmpty(t *testing.T) {
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 1, 4)
	res, err := NewSimulator(env, nil, FCFS(), 1).RunSource(&listSource{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Makespan != 0 {
		t.Errorf("empty stream: %+v", res)
	}
}

// TestRunSourceChunking forces multiple feed chunks (> feedBatch jobs with
// same-instant bursts straddling the boundary) and checks completion.
func TestRunSourceChunking(t *testing.T) {
	var jobs []*workload.Job
	id := 0
	// 600 jobs in bursts of 5 sharing each submit instant.
	for burst := 0; burst < 120; burst++ {
		for k := 0; k < 5; k++ {
			id++
			jobs = append(jobs, mkJob(id, sim.Time(burst), 1, 2))
		}
	}
	env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
	res, err := NewSimulator(env, nil, FCFS(), 1).RunSource(&listSource{jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(jobs) {
		t.Errorf("Completed = %d, want %d", res.Completed, len(jobs))
	}
}
