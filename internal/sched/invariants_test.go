package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"atlarge/internal/cluster"
	"atlarge/internal/workload"
)

// TestSimulatorInvariantsProperty checks, over random workloads and
// policies, the conservation and causality invariants of the scheduling
// simulator:
//
//  1. every job completes exactly once;
//  2. response time >= the job's critical path (no time travel);
//  3. wait >= 0 and start >= submit;
//  4. all machines are fully released at the end.
func TestSimulatorInvariantsProperty(t *testing.T) {
	policies := DefaultPortfolio()
	classes := []workload.Class{
		workload.ClassSynthetic, workload.ClassScientific, workload.ClassBigData,
	}
	f := func(seed int64, policyIdx, classIdx uint8) bool {
		policy := policies[int(policyIdx)%len(policies)]
		class := classes[int(classIdx)%len(classes)]
		r := rand.New(rand.NewSource(seed))
		tr := workload.StandardGenerator(class).Generate(15, r)
		env := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
		res, err := NewSimulator(env, tr, policy, seed).Run()
		if err != nil {
			return false
		}
		if len(res.Jobs) != len(tr.Jobs) {
			return false
		}
		seen := map[int]bool{}
		byID := map[int]*workload.Job{}
		for _, j := range tr.Jobs {
			byID[j.ID] = j
		}
		for _, js := range res.Jobs {
			if seen[js.JobID] {
				return false // double completion
			}
			seen[js.JobID] = true
			if js.Wait < 0 || js.Start < js.Submit || js.Finish < js.Start {
				return false
			}
			cp := byID[js.JobID].CriticalPath()
			if float64(js.Response) < float64(cp)-1e-9 {
				return false // finished faster than physically possible
			}
		}
		return env.FreeCores() == env.TotalCores()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSaturatedRunInvariants checks the per-job invariants where the queue
// only grows: 1000 synthetic clients at their calibrated rate offer about
// 1.45x the capacity of 3 machines of 8 cores (the shape of the benchmark's
// sched-overload workload). The trace spans several feed chunks, so arrivals
// keep landing while the backlog is deep.
func TestSaturatedRunInvariants(t *testing.T) {
	const jobs = 3 * feedBatch
	for _, seed := range []int64{1, 2} {
		pop := &workload.Population{Clients: 1000, Mix: workload.SingleClass(workload.ClassSynthetic), Seed: seed}
		src, err := pop.Source()
		if err != nil {
			t.Fatal(err)
		}
		tr := workload.Collect(src, jobs)
		src.Close()
		for _, policy := range []Policy{FCFS(), SJF(), EASYBackfill(), FairShare()} {
			env := cluster.NewHomogeneous(cluster.KindCluster, 1, 3, 8)
			res, err := NewSimulator(env, tr, policy, seed).Run()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, policy.Name(), err)
			}
			if res.Completed != jobs || len(res.Jobs) != jobs {
				t.Fatalf("seed %d %s: Completed = %d with %d job stats, want %d",
					seed, policy.Name(), res.Completed, len(res.Jobs), jobs)
			}
			seen := make(map[int]bool, jobs)
			for _, js := range res.Jobs {
				if seen[js.JobID] {
					t.Fatalf("seed %d %s: job %d finished twice", seed, policy.Name(), js.JobID)
				}
				seen[js.JobID] = true
				if js.Start < js.Submit || js.Finish < js.Start {
					t.Fatalf("seed %d %s: job %d submit %v, start %v, finish %v",
						seed, policy.Name(), js.JobID, js.Submit, js.Start, js.Finish)
				}
			}
			if env.FreeCores() != env.TotalCores() {
				t.Errorf("seed %d %s: %d of %d cores still claimed",
					seed, policy.Name(), env.TotalCores()-env.FreeCores(), env.TotalCores())
			}
		}
	}
}

// TestSlowdownAtLeastOneProperty checks the bounded-slowdown floor.
func TestSlowdownAtLeastOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := workload.StandardGenerator(workload.ClassGaming).Generate(10, r)
		env := cluster.NewHomogeneous(cluster.KindCluster, 1, 2, 4)
		res, err := NewSimulator(env, tr, GreedyBackfill(), seed).Run()
		if err != nil {
			return false
		}
		for _, js := range res.Jobs {
			if js.Slowdown < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMoreCoresNeverHurtMakespan is a sanity monotonicity check: doubling
// the machine count must not increase makespan under greedy backfill (a
// work-conserving policy on independent tasks).
func TestMoreCoresNeverHurtMakespan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := workload.StandardGenerator(workload.ClassSynthetic)
	tr := g.Generate(40, r)
	small := cluster.NewHomogeneous(cluster.KindCluster, 1, 2, 8)
	big := cluster.NewHomogeneous(cluster.KindCluster, 1, 4, 8)
	resSmall, err := NewSimulator(small, tr, GreedyBackfill(), 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	resBig, err := NewSimulator(big, tr, GreedyBackfill(), 1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Makespan > resSmall.Makespan+1e-9 {
		t.Errorf("doubling cores increased makespan: %v -> %v", resSmall.Makespan, resBig.Makespan)
	}
}
