package api

import (
	"net/http"
	"sync"
	"time"

	"atlarge/internal/exec"
)

// admission gates the work-submitting endpoints (/v1/run, /v1/run/stream
// and POST /v1/jobs) behind two checks:
//
//  1. a per-client token bucket (Config.Rate/Burst, keyed by the
//     X-Atlarge-Client header or the remote host), and
//  2. pending-task backpressure: when the executor's pending-task queue —
//     shared across every plan the server runs — exceeds Config.QueueDepth,
//     new work is refused with 429 instead of being accepted into a pool
//     that cannot absorb it.
//
// Both refusals carry a computed Retry-After: the rate limiter knows its
// exact refill time, and the queue check estimates drain time from the
// recently observed task completion rate.
type admission struct {
	limiter  *rateLimiter // nil = no rate limiting
	stats    *exec.Stats
	maxQueue int64

	// completion-rate tracker: completed-counter deltas sampled at least
	// rateSampleMin apart, smoothed 50/50 with the previous estimate.
	mu         sync.Mutex
	lastSample time.Time
	lastCount  int64
	perSecond  float64
}

const rateSampleMin = 250 * time.Millisecond

// rateTracker smooths a monotone counter into a per-second rate with the
// same sampling discipline as admission.taskRate: resample when the last
// sample is at least rateSampleMin old, then blend 50/50 with the previous
// estimate. The source func reads the counter's current value.
type rateTracker struct {
	source func() float64

	mu         sync.Mutex
	lastSample time.Time
	lastCount  float64
	perSecond  float64
}

func newRateTracker(source func() float64) *rateTracker {
	return &rateTracker{source: source, lastSample: time.Now()}
}

// rate returns the smoothed per-second growth of the source counter.
func (t *rateTracker) rate() float64 {
	now := time.Now()
	count := t.source()
	t.mu.Lock()
	defer t.mu.Unlock()
	if dt := now.Sub(t.lastSample).Seconds(); dt >= rateSampleMin.Seconds() {
		inst := (count - t.lastCount) / dt
		if t.perSecond == 0 {
			t.perSecond = inst
		} else {
			t.perSecond = 0.5*t.perSecond + 0.5*inst
		}
		t.lastSample, t.lastCount = now, count
	}
	return t.perSecond
}

func newAdmission(limiter *rateLimiter, stats *exec.Stats, maxQueue int) *admission {
	return &admission{limiter: limiter, stats: stats, maxQueue: int64(maxQueue), lastSample: time.Now()}
}

// taskRate returns the smoothed task completion rate (tasks/second),
// resampling the shared counter when the last sample is old enough.
func (a *admission) taskRate() float64 {
	now := time.Now()
	count := a.stats.Completed()
	a.mu.Lock()
	defer a.mu.Unlock()
	if dt := now.Sub(a.lastSample).Seconds(); dt >= rateSampleMin.Seconds() {
		inst := float64(count-a.lastCount) / dt
		if a.perSecond == 0 {
			a.perSecond = inst
		} else {
			a.perSecond = 0.5*a.perSecond + 0.5*inst
		}
		a.lastSample, a.lastCount = now, count
	}
	return a.perSecond
}

// drainEstimate converts a backlog of tasks into whole seconds until the
// pool has drained it, clamped to [1, 60]; with no observed completion rate
// yet it guesses 5 seconds.
func (a *admission) drainEstimate(backlog int64) int {
	rate := a.taskRate()
	if rate <= 0 {
		return 5
	}
	secs := int(float64(backlog)/rate) + 1
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// admit runs both checks for one work-submitting request, writing the 429
// envelope itself on refusal. Callers that would not enqueue anything (a
// fully cache-served /v1/run) should call admitClient only.
func (a *admission) admit(w http.ResponseWriter, r *http.Request) bool {
	if !a.admitClient(w, r) {
		return false
	}
	return a.admitQueue(w)
}

// admitClient is the token-bucket half of admission.
func (a *admission) admitClient(w http.ResponseWriter, r *http.Request) bool {
	if a.limiter == nil {
		return true
	}
	if retryAfter, ok := a.limiter.allow(clientKey(r), time.Now()); !ok {
		writeRetryError(w, http.StatusTooManyRequests, errRateLimited, retryAfter,
			"client %q exceeded %.3g requests/second; retry after %d s", clientKey(r), a.limiter.rate, retryAfter)
		return false
	}
	return true
}

// admitQueue is the backpressure half of admission.
func (a *admission) admitQueue(w http.ResponseWriter) bool {
	pending := a.stats.Pending()
	if pending < a.maxQueue {
		return true
	}
	retryAfter := a.drainEstimate(pending - a.maxQueue + 1)
	writeRetryError(w, http.StatusTooManyRequests, errQueueFull, retryAfter,
		"pending-task queue is full (%d tasks, bound %d); retry after %d s", pending, a.maxQueue, retryAfter)
	return false
}
