// Package workload models the workloads that drive the datacenter, P2P,
// MMOG, and FaaS simulators: jobs, bags-of-tasks, workflows (DAGs), and the
// arrival processes that submit them.
//
// The generators cover the workload classes of the paper's Table 9
// (synthetic, scientific, computer-engineering, business-critical, big-data,
// gaming, industrial IoT) so that the portfolio-scheduling experiment can
// sweep the same workload × environment grid.
package workload

import (
	"fmt"
	"sort"

	"atlarge/internal/sim"
)

// Class identifies a workload family from Table 9 of the paper.
type Class int

// Workload classes. Values match the Table 9 acronyms.
const (
	ClassSynthetic           Class = iota + 1 // Syn
	ClassScientific                           // Sci
	ClassComputerEngineering                  // CE
	ClassBusinessCritical                     // BC
	ClassBigData                              // BD
	ClassGaming                               // G
	ClassIndustrial                           // Ind
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSynthetic:
		return "Syn"
	case ClassScientific:
		return "Sci"
	case ClassComputerEngineering:
		return "CE"
	case ClassBusinessCritical:
		return "BC"
	case ClassBigData:
		return "BD"
	case ClassGaming:
		return "G"
	case ClassIndustrial:
		return "Ind"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Task is the unit of execution. A Task needs CPUs machine slots for
// Runtime virtual seconds.
type Task struct {
	ID      int
	JobID   int
	CPUs    int
	Runtime sim.Duration
	// RuntimeEstimate is the user- or predictor-provided runtime, used by
	// backfilling schedulers; it may be wrong (and for the big-data class it
	// deliberately is, to reproduce the Table 9 POSUM finding).
	RuntimeEstimate sim.Duration
	// Deps lists task IDs within the same job that must finish first.
	Deps []int
}

// Job is a set of tasks submitted together: a single task, a bag-of-tasks,
// or a workflow when dependencies are present.
type Job struct {
	ID       int
	Submit   sim.Time
	Tasks    []Task
	Class    Class
	Deadline sim.Duration // 0 means no deadline SLA; relative to Submit
}

// TotalWork returns the sum of CPU-seconds over all tasks.
func (j *Job) TotalWork() float64 {
	w := 0.0
	for _, t := range j.Tasks {
		w += float64(t.CPUs) * float64(t.Runtime)
	}
	return w
}

// IsWorkflow reports whether any task has dependencies.
func (j *Job) IsWorkflow() bool {
	for _, t := range j.Tasks {
		if len(t.Deps) > 0 {
			return true
		}
	}
	return false
}

// CriticalPath returns the length, in virtual seconds, of the longest
// dependency chain (the lower bound on job makespan with infinite resources).
func (j *Job) CriticalPath() sim.Duration {
	memo := make(map[int]sim.Duration, len(j.Tasks))
	byID := make(map[int]*Task, len(j.Tasks))
	for i := range j.Tasks {
		byID[j.Tasks[i].ID] = &j.Tasks[i]
	}
	var finish func(id int) sim.Duration
	finish = func(id int) sim.Duration {
		if v, ok := memo[id]; ok {
			return v
		}
		t := byID[id]
		if t == nil {
			return 0
		}
		var start sim.Duration
		for _, d := range t.Deps {
			if f := finish(d); f > start {
				start = f
			}
		}
		v := start + t.Runtime
		memo[id] = v
		return v
	}
	var cp sim.Duration
	for _, t := range j.Tasks {
		if f := finish(t.ID); f > cp {
			cp = f
		}
	}
	return cp
}

// ValidateDAG checks that dependencies reference existing tasks and contain
// no cycles.
func (j *Job) ValidateDAG() error {
	byID := make(map[int]*Task, len(j.Tasks))
	for i := range j.Tasks {
		if _, dup := byID[j.Tasks[i].ID]; dup {
			return fmt.Errorf("workload: job %d: duplicate task id %d", j.ID, j.Tasks[i].ID)
		}
		byID[j.Tasks[i].ID] = &j.Tasks[i]
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(j.Tasks))
	var visit func(id int) error
	visit = func(id int) error {
		switch color[id] {
		case gray:
			return fmt.Errorf("workload: job %d: dependency cycle through task %d", j.ID, id)
		case black:
			return nil
		}
		color[id] = gray
		t := byID[id]
		for _, d := range t.Deps {
			if _, ok := byID[d]; !ok {
				return fmt.Errorf("workload: job %d: task %d depends on missing task %d", j.ID, id, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for _, t := range j.Tasks {
		if err := visit(t.ID); err != nil {
			return err
		}
	}
	return nil
}

// Clone deep-copies the job, its tasks, and their dependency lists. It is
// how a JobSource consumer retains a job past the next Next call.
func (j *Job) Clone() *Job {
	nj := *j
	nj.Tasks = make([]Task, len(j.Tasks))
	copy(nj.Tasks, j.Tasks)
	for ti := range nj.Tasks {
		if deps := nj.Tasks[ti].Deps; len(deps) > 0 {
			nj.Tasks[ti].Deps = append([]int(nil), deps...)
		} else {
			// Drop empty headers too: they may alias a source's dep arena.
			nj.Tasks[ti].Deps = nil
		}
	}
	return &nj
}

// Trace is an ordered collection of jobs, the interchange format between
// generators, schedulers, and trace I/O.
type Trace struct {
	Name string
	Jobs []*Job
}

// Clone deep-copies the trace (jobs, tasks, and task dependency lists), so
// runs that mutate job state — submission rescaling, dependency remapping,
// repeated simulations — cannot interfere.
func (tr *Trace) Clone() *Trace {
	cp := &Trace{Name: tr.Name, Jobs: make([]*Job, len(tr.Jobs))}
	for i, j := range tr.Jobs {
		cp.Jobs[i] = j.Clone()
	}
	return cp
}

// SortBySubmit orders jobs by submission time (stable).
func (tr *Trace) SortBySubmit() {
	sort.SliceStable(tr.Jobs, func(i, j int) bool { return tr.Jobs[i].Submit < tr.Jobs[j].Submit })
}

// Span returns the submission span (last submit − first submit).
func (tr *Trace) Span() sim.Duration {
	if len(tr.Jobs) == 0 {
		return 0
	}
	first, last := tr.Jobs[0].Submit, tr.Jobs[0].Submit
	for _, j := range tr.Jobs {
		if j.Submit < first {
			first = j.Submit
		}
		if j.Submit > last {
			last = j.Submit
		}
	}
	return last - first
}

// Validate runs ValidateDAG over all jobs.
func (tr *Trace) Validate() error {
	for _, j := range tr.Jobs {
		if err := j.ValidateDAG(); err != nil {
			return err
		}
	}
	return nil
}
