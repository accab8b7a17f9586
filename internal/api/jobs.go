package api

import (
	"context"
	"sort"
	"sync"

	"atlarge/internal/exec"
)

// Job states.
const (
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// jobKindSweep is the only job kind today: an asynchronous scenario sweep.
// The /v1/jobs resource model is kind-extensible — the submit body names the
// kind next to its spec — so future long-running work (trace imports,
// distributed runs) slots in without new routes.
const jobKindSweep = "sweep"

// jobStates enumerates the valid states for the /v1/jobs?state= filter.
var jobStates = []string{jobRunning, jobDone, jobFailed, jobCancelled}

// job is one asynchronous unit of work: POST /v1/jobs creates it (or dedups
// onto an existing one — the ID is the content hash of spec+seed+replicas),
// the status/result/cancel endpoints observe and steer it, and with a state
// directory configured it survives server restarts. Progress counters
// stream in from the executor while the job runs.
type job struct {
	id     string
	kind   string
	name   string // the spec's name, for humans listing jobs
	cancel context.CancelFunc

	mu     sync.Mutex
	phase  string // one of the job states
	done   int
	total  int
	result []byte // final report JSON, byte-identical to the CLI sweep output
	errMsg string
	spans  jobSpans // incremental span aggregates for /v1/jobs/{id}/profile
}

// jobSpans aggregates the executor task spans of one job incrementally —
// sums, maxima, and per-worker busy time only, so memory stays constant no
// matter how many tasks the job runs. Guarded by the owning job's mu.
type jobSpans struct {
	tasks   int
	cached  int
	failed  int
	waitNs  int64
	runNs   int64
	waitMax int64
	runMax  int64
	workers map[int]*workerSpan
}

// workerSpan is one pool worker's share of a job's execution.
type workerSpan struct {
	tasks  int
	busyNs int64
}

// observeSpan folds one task span into the job's aggregates; it has the
// SpanObserver signature.
func (j *job) observeSpan(_ int, _ string, span exec.TaskSpan, err error) {
	wait := int64(span.Start - span.Wait)
	run := int64(span.End - span.Start)
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &j.spans
	s.tasks++
	if span.Cached {
		s.cached++
	}
	if err != nil {
		s.failed++
	}
	s.waitNs += wait
	s.runNs += run
	if wait > s.waitMax {
		s.waitMax = wait
	}
	if run > s.runMax {
		s.runMax = run
	}
	if s.workers == nil {
		s.workers = make(map[int]*workerSpan)
	}
	ws := s.workers[span.Worker]
	if ws == nil {
		ws = &workerSpan{}
		s.workers[span.Worker] = ws
	}
	ws.tasks++
	ws.busyNs += run
}

// jobProfileDoc is the span summary of GET /v1/jobs/{id}/profile. All
// durations are milliseconds of wall-clock time.
type jobProfileDoc struct {
	Job   string `json:"job"`
	State string `json:"state"`
	Tasks struct {
		Observed int `json:"observed"`
		Cached   int `json:"cached"`
		Failed   int `json:"failed"`
	} `json:"tasks"`
	QueueWaitMs struct {
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"queue_wait_ms"`
	RunMs struct {
		Mean float64 `json:"mean"`
		Max  float64 `json:"max"`
	} `json:"run_ms"`
	Workers []workerProfileDoc `json:"workers,omitempty"`
}

// workerProfileDoc is one worker's row in the profile document.
type workerProfileDoc struct {
	Worker int     `json:"worker"`
	Tasks  int     `json:"tasks"`
	BusyMs float64 `json:"busy_ms"`
}

// profileDoc snapshots the job's span aggregates.
func (j *job) profileDoc() jobProfileDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := &j.spans
	d := jobProfileDoc{Job: j.id, State: j.phase}
	d.Tasks.Observed = s.tasks
	d.Tasks.Cached = s.cached
	d.Tasks.Failed = s.failed
	if s.tasks > 0 {
		d.QueueWaitMs.Mean = float64(s.waitNs) / float64(s.tasks) / 1e6
		d.RunMs.Mean = float64(s.runNs) / float64(s.tasks) / 1e6
	}
	d.QueueWaitMs.Max = float64(s.waitMax) / 1e6
	d.RunMs.Max = float64(s.runMax) / 1e6
	ids := make([]int, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ws := s.workers[id]
		d.Workers = append(d.Workers, workerProfileDoc{
			Worker: id, Tasks: ws.tasks, BusyMs: float64(ws.busyNs) / 1e6,
		})
	}
	return d
}

// progress records one streamed task completion.
func (j *job) progress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.mu.Unlock()
}

// finish settles the job from its run outcome; a cancelled job stays
// cancelled even if the runner surfaces the context error afterwards.
func (j *job) finish(result []byte, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.phase == jobCancelled {
		return
	}
	if err != nil {
		j.phase = jobFailed
		j.errMsg = err.Error()
		return
	}
	j.phase = jobDone
	j.result = result
}

// markCancelled flips a running job to cancelled and fires its context.
func (j *job) markCancelled() bool {
	j.mu.Lock()
	running := j.phase == jobRunning
	if running {
		j.phase = jobCancelled
	}
	j.mu.Unlock()
	if running {
		j.cancel()
	}
	return running
}

// state snapshots the job's lifecycle state.
func (j *job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phase
}

// jobDoc is the uniform job resource of the /v1/jobs API.
type jobDoc struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	Links struct {
		Self   string `json:"self"`
		Result string `json:"result,omitempty"`
	} `json:"links"`
}

// doc snapshots the job as a /v1/jobs resource document.
func (j *job) doc() jobDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	d := jobDoc{ID: j.id, Kind: j.kind, Name: j.name, State: j.phase, Done: j.done, Total: j.total, Error: j.errMsg}
	d.Links.Self = "/v1/jobs/" + j.id
	if j.phase == jobDone {
		d.Links.Result = "/v1/jobs/" + j.id + "/result"
	}
	return d
}

// resultBytes returns the finished report, or false while it is not ready.
func (j *job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.phase != jobDone {
		return nil, false
	}
	return j.result, true
}
