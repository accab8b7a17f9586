package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"atlarge/internal/api"
)

type opKind int

const (
	opMiss opKind = iota
	opHit
	opJob
)

func (k opKind) String() string {
	return [...]string{"run-miss", "run-hit", "job"}[k]
}

// The serve traffic. Each cycle of opPattern is shuffled from the seed, so
// the mix is fixed: 3/8 misses, a quarter hits, 3/8 jobs, so the misses and
// the jobs, each of which has latency metrics, get the same sample count.
// runIDs are cheap real experiments; a miss asks for them with a fresh seed,
// a hit with the one seed warmed during set-up.
var opPattern = []opKind{opMiss, opMiss, opMiss, opHit, opHit, opJob, opJob, opJob}

const (
	runIDs = "fig3,tab7"
	// jobSpec is the POST /v1/jobs sweep: three policies at one load.
	jobSpec = `{
  "version": 1,
  "name": "bench-sweep",
  "workload": {"class": "scientific", "jobs": 60},
  "cluster": {"kind": "CL", "machines": 16, "cores": 8},
  "replicas": 1,
  "seed": 1,
  "objective": "mean_response_s",
  "sweep": {"policy": ["sjf", "fcfs", "easy-bf"], "load": [0.7]}
}`
	jobPoll   = 2 * time.Millisecond
	opTimeout = 30 * time.Second
)

// hitSeed is the seed of the warmed hit query; miss seeds start above it.
const hitSeed = 7

// apiServer is the in-process API server on a loopback listener.
type apiServer struct {
	base    string
	hs      *http.Server
	done    chan struct{}
	hitBody []byte
}

// startServer starts api.New on 127.0.0.1, waits until it answers, and
// warms the hit query.
func startServer(seed int64, tr *tracer, parent int) (*apiServer, error) {
	id := tr.begin(parent, "api", "api.New + listen")
	defer tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &apiServer{
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: api.New(api.Config{Parallelism: parallel})},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	c := newClient(opTimeout)
	defer c.CloseIdleConnections()
	status, _, body, err := do(c, "GET", s.base+hitQuery(seed), "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("warming %s: status %d", hitQuery(seed), status)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	s.hitBody = body
	return s, nil
}

// close shuts the server down and waits for its serve loop to return.
func (s *apiServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.done
	return err
}

func hitQuery(seed int64) string {
	return fmt.Sprintf("/v1/run?ids=%s&seed=%d", runIDs, 1000*seed+hitSeed)
}

func newClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout:   timeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// do issues one request and reads the whole response.
func do(c *http.Client, method, url, body string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

type serveOp struct {
	index int
	kind  opKind
	due   time.Duration // offset from the window start
	seed  int64
}

// schedule lays the window's operations out at fixed intervals, the kinds
// drawn by shuffling opPattern once per cycle.
func schedule(window time.Duration, rate float64, seed int64) []serveOp {
	n := int(window.Seconds() * rate)
	rng := rand.New(rand.NewSource(seed))
	ops := make([]serveOp, 0, n)
	var cycle []opKind
	for i := 0; i < n; i++ {
		if len(cycle) == 0 {
			cycle = append(cycle, opPattern...)
			rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		}
		ops = append(ops, serveOp{
			index: i,
			kind:  cycle[0],
			due:   time.Duration(float64(i) / rate * float64(time.Second)),
			seed:  1000*seed + hitSeed + 1 + int64(i),
		})
		cycle = cycle[1:]
	}
	return ops
}

// serveResults gathers what the client workers observed.
type serveResults struct {
	mu        sync.Mutex
	latency   map[opKind][]time.Duration // successful operations, from due time
	slice     []map[opKind][]float64     // the same in ms, by slice
	late      []time.Duration
	runClient []time.Duration // every successful /v1/run, from send to response
	queueWait []float64       // per job, mean exec queue wait (traced pass)
	rejected  int
}

// serve drives the open loop over the window's schedule, cut into one
// contiguous slice per round. The server stays up between slices; the
// /metrics deltas are taken from before the first slice to after the last.
func (p *pass) serve() *component {
	n := rounds
	c := &component{name: wServe, tasks: make([]func(int) error, n)}
	ops := schedule(p.cfg.ServeWindow, p.cfg.ServeRate, p.seed)
	res := &serveResults{latency: map[opKind][]time.Duration{}}
	var before map[string]float64
	for r := range c.tasks {
		part := ops[r*len(ops)/n : (r+1)*len(ops)/n]
		c.tasks[r] = func(parent int) error {
			if before == nil {
				var err error
				if before, err = scrape(p.server.base); err != nil {
					return err
				}
			}
			res.slice = append(res.slice, map[opKind][]float64{})
			p.openLoop(parent, part, res)
			return nil
		}
	}
	c.finish = func() error {
		after, err := scrape(p.server.base)
		if err != nil {
			return err
		}
		p.serveMetrics(res, before, after)
		return nil
	}
	return c
}

// openLoop issues ops on their schedule from one client worker per core,
// one connection each: the workers take operations in due order, wait until
// each is due and time it from then, so a stall is charged to every
// operation it delays.
func (p *pass) openLoop(parent int, ops []serveOp, res *serveResults) {
	if len(ops) == 0 {
		return
	}
	srv := p.server
	queue := make(chan serveOp, len(ops)) // holds the whole slice
	for _, op := range ops {
		queue <- op
	}
	close(queue)
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond).Add(-ops[0].due)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(opTimeout)
			defer c.CloseIdleConnections()
			for op := range queue {
				due := start.Add(op.due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				id := p.tr.begin(parent, "api", op.kind.String())
				err := p.doOp(c, srv, op, res)
				p.tr.end(id)
				done := time.Now()
				res.mu.Lock()
				res.late = append(res.late, sent.Sub(due))
				if err == nil {
					res.latency[op.kind] = append(res.latency[op.kind], done.Sub(due))
					sl := res.slice[len(res.slice)-1]
					sl[op.kind] = append(sl[op.kind], millis(done.Sub(due)))
					if op.kind != opJob {
						res.runClient = append(res.runClient, done.Sub(sent))
					}
				}
				res.mu.Unlock()
				errs[op.index-ops[0].index] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		p.tally.check(err)
	}
}

// statusErr reports an unexpected response status, counting 429 refusals.
func (r *serveResults) statusErr(what string, status int, body []byte) error {
	if status == http.StatusTooManyRequests {
		r.mu.Lock()
		r.rejected++
		r.mu.Unlock()
	}
	return fmt.Errorf("%s: status %d: %.200s", what, status, body)
}

// doOp performs one operation and checks its outputs.
func (p *pass) doOp(c *http.Client, srv *apiServer, op serveOp, res *serveResults) error {
	switch op.kind {
	case opHit:
		status, hdr, body, err := do(c, "GET", srv.base+hitQuery(p.seed), "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return res.statusErr("run-hit", status, body)
		}
		if hdr.Get("X-Atlarge-Cache") != "hit" || !bytes.Equal(body, srv.hitBody) {
			return fmt.Errorf("run-hit: cache %q, body differs from the warmed result", hdr.Get("X-Atlarge-Cache"))
		}
	case opMiss:
		status, hdr, body, err := do(c, "GET", fmt.Sprintf("%s/v1/run?ids=%s&seed=%d", srv.base, runIDs, op.seed), "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return res.statusErr("run-miss", status, body)
		}
		return checkRunDoc(body, hdr.Get("X-Atlarge-Cache"), runIDs, op.seed)
	case opJob:
		return p.doJob(c, srv, op, res)
	}
	return nil
}

// checkRunDoc checks a /v1/run miss: computed fresh, for the asked seed,
// one report per asked experiment (a failed experiment has none).
func checkRunDoc(body []byte, cache, ids string, seed int64) error {
	if cache != "miss" {
		return fmt.Errorf("run-miss: cache %q for a fresh seed", cache)
	}
	var doc struct {
		Seed        int64 `json:"seed"`
		Experiments []struct {
			ID     string          `json:"id"`
			Report json.RawMessage `json:"report"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("run-miss: %w", err)
	}
	want := strings.Split(ids, ",")
	if doc.Seed != seed || len(doc.Experiments) != len(want) {
		return fmt.Errorf("run-miss: seed %d with %d experiments, want seed %d with %d", doc.Seed, len(doc.Experiments), seed, len(want))
	}
	for i, e := range doc.Experiments {
		if e.ID != want[i] || len(e.Report) == 0 || string(e.Report) == "null" {
			return fmt.Errorf("run-miss: experiment %q (report %.40s), want %q with a report", e.ID, e.Report, want[i])
		}
	}
	return nil
}

// doJob submits a sweep, polls it to done and fetches its result.
func (p *pass) doJob(c *http.Client, srv *apiServer, op serveOp, res *serveResults) error {
	body := fmt.Sprintf(`{"kind": "sweep", "spec": %s, "seed": %d}`, jobSpec, op.seed)
	status, _, raw, err := do(c, "POST", srv.base+"/v1/jobs", body)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return res.statusErr("job submit", status, raw)
	}
	var doc struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || doc.ID == "" {
		return fmt.Errorf("job submit: no job id in %s", raw)
	}
	jobURL := srv.base + "/v1/jobs/" + doc.ID
	deadline := time.Now().Add(opTimeout)
	for doc.State != "done" {
		switch doc.State {
		case "failed", "cancelled":
			return fmt.Errorf("job %s %s: %s", doc.ID, doc.State, doc.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s: still %s after %v", doc.ID, doc.State, opTimeout)
		}
		time.Sleep(jobPoll)
		status, _, raw, err = do(c, "GET", jobURL, "")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("job %s status: %d", doc.ID, status)
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("job %s status: %w", doc.ID, err)
		}
	}
	status, _, raw, err = do(c, "GET", jobURL+"/result", "")
	if err != nil {
		return err
	}
	if status != http.StatusOK || !json.Valid(raw) || !bytes.Contains(raw, []byte(`"bench-sweep"`)) {
		return fmt.Errorf("job %s result: status %d, %d bytes", doc.ID, status, len(raw))
	}
	if p.tr != nil {
		var prof struct {
			QueueWaitMs struct {
				Mean float64 `json:"mean"`
			} `json:"queue_wait_ms"`
		}
		status, _, raw, err = do(c, "GET", jobURL+"/profile", "")
		if err != nil || status != http.StatusOK || json.Unmarshal(raw, &prof) != nil {
			return fmt.Errorf("job %s profile: status %d, %v", doc.ID, status, err)
		}
		res.mu.Lock()
		res.queueWait = append(res.queueWait, prof.QueueWaitMs.Mean)
		res.mu.Unlock()
	}
	return nil
}

// serveMetrics turns the client observations and the /metrics deltas over
// the window into the serve metrics.
func (p *pass) serveMetrics(res *serveResults, before, after map[string]float64) {
	delta := func(series string) float64 { return after[series] - before[series] }
	for _, m := range []struct {
		kind opKind
		name string
	}{{opMiss, "run"}, {opJob, "job"}} {
		lat := durationsMs(res.latency[m.kind])
		if len(lat) == 0 {
			continue
		}
		// The p50 is the lowest of the slices' medians, by the same rule
		// as the fastest repeat elsewhere: the slice the host disturbed
		// least.
		var p50s []float64
		for _, sl := range res.slice {
			if len(sl[m.kind]) > 0 {
				p50s = append(p50s, median(sl[m.kind]))
			}
		}
		p.e2e["serve_"+m.name+"_p50_ms"] = slices.Min(p50s)
		// The tails are per-layer metrics: on a shared host they count the
		// host's stalls more than the program's work (see README.md).
		if v, pct, ok := tail(lat); ok {
			name := "serve." + m.name + "_tail_ms"
			p.layer[name] = v
			p.notes = append(p.notes, fmt.Sprintf("%s is p%.1f of %d samples", name, pct, len(lat)))
		}
	}
	p.layer["api.run_hit_ms"] = median(durationsMs(res.latency[opHit]))
	hits, misses := delta("atlarge_cache_hits_total"), delta("atlarge_cache_misses_total")
	if hits+misses > 0 {
		p.layer["api.cache_hit_ratio"] = hits / (hits + misses)
	}
	const runSeries = `atlarge_http_request_duration_seconds_%s{endpoint="GET /v1/run"}`
	if n := delta(fmt.Sprintf(runSeries, "count")); n > 0 {
		server := 1e3 * delta(fmt.Sprintf(runSeries, "sum")) / n
		p.layer["api.server_ms"] = server
		client := 0.0
		for _, d := range res.runClient {
			client += millis(d)
		}
		if len(res.runClient) > 0 {
			client /= float64(len(res.runClient))
			p.notes = append(p.notes, fmt.Sprintf("GET /v1/run: client mean %.3f ms, server mean %.3f ms, transport share %.1f%%",
				client, server, 100*(client-server)/client))
		}
	}
	p.layer["api.rejected"] = float64(res.rejected)
	late := 0.0
	for _, d := range res.late {
		late += max(0, millis(d))
	}
	if len(res.late) > 0 {
		p.layer["serve.gen_late_ms"] = late / float64(len(res.late))
	}
	if len(res.queueWait) > 0 {
		sum := 0.0
		for _, w := range res.queueWait {
			sum += w
		}
		p.layer["exec.queue_wait_ms"] = sum / float64(len(res.queueWait))
	}
}

// scrape reads the server's Prometheus text metrics into a map from series
// (name plus label block as rendered) to value.
func scrape(base string) (map[string]float64, error) {
	c := newClient(10 * time.Second)
	defer c.CloseIdleConnections()
	status, _, raw, err := do(c, "GET", base+"/metrics", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, errors.New("metrics scrape: unparseable line " + line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics scrape: %w", err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}
