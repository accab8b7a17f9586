package sched

import (
	"fmt"

	"atlarge/internal/sim"
	"atlarge/internal/workload"
)

// feedBatch is how many jobs each feed event schedules ahead of the
// simulation clock. Chunks always end on a submit-instant boundary so a
// dispatch cycle never sees a partial view of simultaneous arrivals.
const feedBatch = 256

// streamState carries everything a run keeps instead of O(jobs) slices and
// maps: the source cursor, the reusable feed buffer, and the scalar
// aggregates the Result is built from.
type streamState struct {
	src   workload.JobSource
	carry *workload.Job // first job of the next chunk (already cloned)
	batch []sim.BatchEvent
	last  sim.Time // newest submit fed so far (monotonicity guard)
	err   error

	count       int
	sumSd       float64
	sumResp     float64
	sumWait     float64
	misses      int
	firstSet    bool
	firstSubmit sim.Time
	lastFinish  sim.Time

	// Time-weighted mean of the utilization samples, kept incrementally:
	// samples are piecewise-constant from utilAt, integrated since utilT0.
	utilInit bool
	utilT0   sim.Time
	utilAt   sim.Time
	utilV    float64
	utilArea float64
}

func (st *streamState) accumulate(js JobStats) {
	st.count++
	st.sumSd += js.Slowdown
	st.sumResp += float64(js.Response)
	st.sumWait += float64(js.Wait)
	if !js.DeadlineMet {
		st.misses++
	}
	if !st.firstSet || js.Submit < st.firstSubmit {
		st.firstSet = true
		st.firstSubmit = js.Submit
	}
	if js.Finish > st.lastFinish {
		st.lastFinish = js.Finish
	}
}

func (st *streamState) recordUtil(now sim.Time, v float64) {
	if !st.utilInit {
		st.utilInit = true
		st.utilT0, st.utilAt, st.utilV = now, now, v
		return
	}
	st.utilArea += st.utilV * float64(now-st.utilAt)
	st.utilAt, st.utilV = now, v
}

func (st *streamState) buildResult(policy string, horizon sim.Time) *Result {
	res := &Result{Policy: policy, Completed: st.count, Horizon: horizon}
	if st.count == 0 {
		return res
	}
	n := float64(st.count)
	res.Makespan = st.lastFinish - st.firstSubmit
	res.MeanSlowdown = st.sumSd / n
	res.MeanResponse = st.sumResp / n
	res.MeanWait = st.sumWait / n
	res.DeadlineMisses = st.misses
	if st.utilInit && horizon > st.utilT0 {
		res.UtilizationMean = (st.utilArea + st.utilV*float64(horizon-st.utilAt)) / float64(horizon-st.utilT0)
	}
	return res
}

// RunSource executes the simulation against a pull-based job stream:
// arrivals are fed in feedBatch chunks, per-job state is reclaimed as jobs
// finish, and stats are aggregated incrementally, so resident memory is
// proportional to in-flight jobs — independent of how many jobs the source
// emits. The source must emit jobs in non-decreasing Submit order (the
// JobSource contract); RunSource does not Close it. Run is RunSource over
// the sorted trace.
//
// Arrivals are scheduled chunk by chunk as the feed pulls them, not all at
// the start of the run. So when a stream is longer than feedBatch and a task
// finish falls exactly on the submit time of a job in a later chunk, the
// finish was scheduled first and fires before that arrival. Run behaves the
// same, since it is this loop.
func (s *Simulator) RunSource(src workload.JobSource) (*Result, error) {
	s.initRun()
	s.stream = streamState{src: src}
	st := &s.stream
	s.feed()
	if st.err != nil {
		return nil, st.err
	}
	if err := s.k.Run(); err != nil {
		return nil, fmt.Errorf("sched: run: %w", err)
	}
	if st.err != nil {
		return nil, st.err
	}
	res := st.buildResult(s.policy.Name(), s.k.Now())
	if s.keepJobs {
		res.Jobs = s.jobs
	}
	return res, nil
}

// feed pulls the next chunk of jobs, schedules their arrivals, and — if the
// stream continues — schedules itself at the chunk's final submit instant.
// A chunk only ends once the next job's submit time strictly advances, so
// all arrivals sharing an instant land in one batch; the feed event then
// fires after those arrivals but before their dispatch cycle (its sequence
// number predates the dispatch event's), so the cycle sees the whole instant.
func (s *Simulator) feed() {
	st := &s.stream
	buf := st.batch[:0]
	j := st.carry
	st.carry = nil
	if j == nil {
		j = s.pullClone()
	}
	for j != nil {
		if j.Submit < st.last {
			st.err = fmt.Errorf("sched: job source emitted submit %v after %v (must be non-decreasing)", j.Submit, st.last)
			s.k.Stop()
			return
		}
		if err := j.ValidateDAG(); err != nil {
			st.err = fmt.Errorf("sched: %w", err)
			s.k.Stop()
			return
		}
		if len(buf) >= feedBatch && j.Submit > st.last {
			st.carry = j
			break
		}
		st.last = j.Submit
		job := j
		s.jobLeft[job.ID] = len(job.Tasks)
		buf = append(buf, sim.BatchEvent{
			At: job.Submit, Name: "job-arrive",
			Fn: func(k *sim.Kernel) { s.onJobArrive(job) },
		})
		j = s.pullClone()
	}
	st.batch = buf // keep the backing array for the next chunk
	if len(buf) == 0 {
		return
	}
	s.k.AtBatch(buf)
	if st.carry != nil {
		s.k.At(st.last, "feed", func(k *sim.Kernel) { s.feed() })
	}
}

// pullClone takes the next job from the source and clones it out of the
// source's scratch storage, since the simulator holds jobs until they
// finish.
func (s *Simulator) pullClone() *workload.Job {
	j := s.stream.src.Next()
	if j == nil {
		return nil
	}
	return j.Clone()
}
