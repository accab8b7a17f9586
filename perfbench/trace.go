package main

import (
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"atlarge/internal/obs"
	"atlarge/internal/sim"
)

// span is one call into a layer, recorded by benchmark code around a public
// entry point of the program. Offsets are from the run's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Run    string `json:"run"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory until the run ends.
// A nil *tracer records nothing, so the untraced pass pays one nil check
// per call site.
type tracer struct {
	run   string
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span whose bounds were measured elsewhere.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it that its child spans cover, summed by
// layer. Children may overlap (two workers), so coverage is their union.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		out[s.Layer] += float64(s.End-s.Start-covered(s.Start, s.End, children[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// handlerTime is one kernel event name's aggregate over a profiled section.
type handlerTime struct {
	Fired uint64  `json:"fired"`
	WallS float64 `json:"wall_s"`
}

// kernelProfile collects one shared per-event profile over the sections
// it is attached for, through the program's process-wide kernel observer.
type kernelProfile struct {
	prof *obs.SharedProfile
}

func newKernelProfile() *kernelProfile { return &kernelProfile{prof: obs.NewSharedProfile()} }

// attach profiles every kernel created until detach is called.
func (p *kernelProfile) attach() {
	sim.SetKernelObserver(func(k *sim.Kernel) { k.SetTracer(p.prof) })
}

func (p *kernelProfile) detach() { sim.SetKernelObserver(nil) }

// rows returns the per-event handler times collected so far.
func (p *kernelProfile) rows() map[string]handlerTime {
	out := make(map[string]handlerTime)
	for _, r := range p.prof.Rows() {
		out[r.Name] = handlerTime{Fired: r.Fired, WallS: float64(r.WallNs) / 1e9}
	}
	return out
}

// handlerTotal sums handler wall time over every event name.
func handlerTotal(rows map[string]handlerTime) float64 {
	total := 0.0
	for _, r := range rows {
		total += r.WallS
	}
	return total
}

// heapSampler tracks the peak live Go heap between start and stop by
// sampling runtime/metrics: the heap each GC cycle found live, so the peak
// does not depend on how much garbage happened to wait for the next cycle.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	h.peak = readHeap(s)
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				h.peak = max(h.peak, readHeap(s))
				return
			case <-tick.C:
				h.peak = max(h.peak, readHeap(s))
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
