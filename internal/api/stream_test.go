package api

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"atlarge"
)

// streamLine is the decoded shape of one NDJSON event from /v1/run/stream.
type streamLine struct {
	Type     string               `json:"type"`
	Total    int                  `json:"total"`
	Seed     int64                `json:"seed"`
	Replicas int                  `json:"replicas"`
	ID       string               `json:"id"`
	Done     int                  `json:"done"`
	Document *atlarge.RunDocument `json:"document"`
	Error    string               `json:"error"`
}

// TestServeRunStream: the NDJSON stream opens with a plan line, emits one
// task line per (experiment, replica), and closes with a result document
// identical to the plain /v1/run body for the same query.
func TestServeRunStream(t *testing.T) {
	srv := newTestServer(t)

	resp, err := http.Get(srv.URL + "/v1/run/stream?ids=alpha,beta&seed=42&replicas=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q, want application/x-ndjson", ct)
	}

	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	const tasks = 2 * 3 // ids × replicas
	if len(lines) != tasks+2 {
		t.Fatalf("stream emitted %d lines, want %d (plan + tasks + result)", len(lines), tasks+2)
	}
	if lines[0].Type != "plan" || lines[0].Total != tasks || lines[0].Seed != 42 || lines[0].Replicas != 3 {
		t.Errorf("plan line = %+v", lines[0])
	}
	for i, l := range lines[1 : tasks+1] {
		if l.Type != "task" || l.Done != i+1 || l.Total != tasks || l.ID == "" {
			t.Errorf("task line %d = %+v", i, l)
		}
	}
	last := lines[len(lines)-1]
	if last.Type != "result" || last.Document == nil {
		t.Fatalf("terminal line = %+v", last)
	}

	// The streamed document must match the plain endpoint's document — and
	// the stream's results must have populated the cache on the way out.
	plainResp, plain := get(t, srv.URL+"/v1/run?ids=alpha,beta&seed=42&replicas=3")
	if state := plainResp.Header.Get("X-Atlarge-Cache"); state != "hit" {
		t.Errorf("post-stream /v1/run cache state = %q, want hit", state)
	}
	var plainDoc atlarge.RunDocument
	if err := json.Unmarshal([]byte(plain), &plainDoc); err != nil {
		t.Fatal(err)
	}
	streamed, _ := json.Marshal(last.Document)
	direct, _ := json.Marshal(&plainDoc)
	if string(streamed) != string(direct) {
		t.Error("streamed result document differs from /v1/run document")
	}
}

// TestServeRunStreamBadQuery: validation failures surface before any
// streaming starts.
func TestServeRunStreamBadQuery(t *testing.T) {
	srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/v1/run/stream?ids=nope")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(body, `"error"`) {
		t.Errorf("status = %d body %s", resp.StatusCode, body)
	}
}

// TestServeRunStreamSeedZero: seed 0 is a valid seed and the plan line must
// carry it explicitly rather than omitting the field.
func TestServeRunStreamSeedZero(t *testing.T) {
	srv := newTestServer(t)
	_, body := get(t, srv.URL+"/v1/run/stream?ids=alpha&seed=0")
	first, _, _ := strings.Cut(body, "\n")
	if !strings.Contains(first, `"seed":0`) {
		t.Errorf("plan line omits seed 0: %s", first)
	}
}

// sweepSpecBody is a small two-cell sweep used by the job tests.
const sweepSpecBody = `{"version": 2, "name": "api-async", "domain": "sched",
	"policy": "sjf", "workload": {"class": "syn", "jobs": 8},
	"cluster": {"machines": 2},
	"sweep": {"policy": ["sjf", "fcfs"]}}`

// TestServeAsyncSweep: a job submitted without seed or replicas overrides
// takes both from the spec, runs to done, and its result bytes equal an
// in-process scenario.Run of the same spec with no overrides — which is
// what `atlarge scenario sweep --format json` prints.
func TestServeAsyncSweep(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()
	spec := strings.Replace(sweepSpecBody, `"cluster"`, `"seed": 9, "replicas": 2, "cluster"`, 1)

	status, doc, raw := postJob(t, srv.URL, `{"kind": "sweep", "spec": `+spec+`}`)
	if status != http.StatusAccepted || doc.ID == "" {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	done := waitJobDone(t, srv.URL, doc.ID)
	if done.State != jobDone || done.Done != done.Total || done.Total != 4 {
		t.Fatalf("finished job = %+v, want done with 4/4 tasks (2 cells x 2 spec replicas)", done)
	}
	_, got := get(t, srv.URL+done.Links.Result)
	if want := inProcessSweep(t, spec, nil, 0); got != want {
		t.Error("job result bytes differ from the in-process sweep of the same spec")
	}
}

// TestServeAsyncSweepNotFound: an ID that was never submitted is 404 on
// every job route.
func TestServeAsyncSweepNotFound(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	for _, tc := range []struct{ method, path string }{
		{"GET", "/v1/jobs/nope"},
		{"GET", "/v1/jobs/nope/result"},
		{"GET", "/v1/jobs/nope/profile"},
		{"DELETE", "/v1/jobs/nope"},
	} {
		resp, env, raw := doReq(t, tc.method, srv.URL+tc.path, "")
		if resp.StatusCode != http.StatusNotFound || env.Error.Code != errNotFound {
			t.Errorf("%s %s: status %d body %s, want 404 not_found", tc.method, tc.path, resp.StatusCode, raw)
		}
	}
}

// TestServeAsyncSweepCancel: DELETE flips a running job to cancelled and
// its result becomes 410.
func TestServeAsyncSweepCancel(t *testing.T) {
	api := New(Config{Parallelism: 1})
	defer api.waitJobs()
	srv := httptest.NewServer(api)
	defer srv.Close()

	status, doc, raw := postJob(t, srv.URL, `{"kind": "sweep", "spec": `+sweepSpecBody+`, "replicas": 64}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	resp, _, body := doReq(t, http.MethodDelete, srv.URL+"/v1/jobs/"+doc.ID, "")
	var after jobDoc
	if err := json.Unmarshal([]byte(body), &after); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s (%v)", resp.StatusCode, body, err)
	}
	if after.State != jobCancelled && after.State != jobDone {
		t.Fatalf("cancelled job state = %q", after.State)
	}
	if after.State == jobCancelled {
		resp2, env, raw := doReq(t, "GET", srv.URL+"/v1/jobs/"+doc.ID+"/result", "")
		if resp2.StatusCode != http.StatusGone || env.Error.Code != errJobCancelled {
			t.Errorf("cancelled result: status %d body %s, want 410 job_cancelled", resp2.StatusCode, raw)
		}
	}
}

// listJobs returns the IDs in GET /v1/jobs.
func listJobs(t *testing.T, url string) []string {
	t.Helper()
	_, body := get(t, url+"/v1/jobs")
	var list struct {
		Jobs []jobDoc `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("bad job list %s: %v", body, err)
	}
	ids := make([]string, len(list.Jobs))
	for i, d := range list.Jobs {
		ids[i] = d.ID
	}
	return ids
}

// TestServeSweepCellBound: a spec whose axis cardinalities multiply past
// the server's cell limit is rejected up front — including the degenerate
// many-axis case whose raw product would overflow — without expanding, and
// no job is created.
func TestServeSweepCellBound(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxCells: 4}))
	defer srv.Close()
	spec := `{"version": 2, "name": "big", "domain": "sched",
		"workload": {"class": "syn", "jobs": 8},
		"sweep": {"policy": ["sjf", "fcfs", "random"], "load": [0.1, 0.2, 0.3]}}`
	status, _, body := postJob(t, srv.URL, `{"kind": "sweep", "spec": `+spec+`}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "limit of 4 cells") {
		t.Errorf("oversized sweep: status %d body %s", status, body)
	}
	if ids := listJobs(t, srv.URL); len(ids) != 0 {
		t.Errorf("rejected sweep created jobs %v", ids)
	}
}

// TestServeSweepSpecReplicaBound: a spec body declaring a huge replica
// count is rejected exactly like a huge request "replicas" — the bound
// covers both sources, before any work is scheduled.
func TestServeSweepSpecReplicaBound(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxReplicas: 8}))
	defer srv.Close()
	spec := `{"version": 2, "name": "hostile", "domain": "sched",
		"policy": "sjf", "workload": {"class": "syn", "jobs": 4},
		"replicas": 1000000}`
	ok := strings.Replace(spec, "1000000", "2", 1)
	for name, body := range map[string]string{
		"spec replicas":    `{"kind": "sweep", "spec": ` + spec + `}`,
		"request replicas": `{"kind": "sweep", "spec": ` + ok + `, "replicas": 1000000}`,
	} {
		status, _, raw := postJob(t, srv.URL, body)
		if status != http.StatusBadRequest || !strings.Contains(raw, "replicas must be in 1..8") {
			t.Errorf("%s: status %d body %s, want 400 replica bound", name, status, raw)
		}
	}
	if ids := listJobs(t, srv.URL); len(ids) != 0 {
		t.Errorf("rejected submissions created jobs %v", ids)
	}
	// The spec's own replica count still works when it is within bounds.
	status, doc, raw := postJob(t, srv.URL, `{"kind": "sweep", "spec": `+ok+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("in-bounds spec replicas: status %d body %s", status, raw)
	}
	waitJobDone(t, srv.URL, doc.ID)
	if _, body := get(t, srv.URL+"/v1/jobs/"+doc.ID+"/result"); !strings.Contains(body, `"replicas": 2`) {
		t.Errorf("in-bounds spec replicas: result %.200s", body)
	}
}

// TestServeAsyncSweepTotalFromSpec: the job's total reflects the spec's
// replica count from the moment of acceptance.
func TestServeAsyncSweepTotalFromSpec(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()
	spec := `{"version": 2, "name": "tot", "domain": "sched",
		"policy": "sjf", "workload": {"class": "syn", "jobs": 4},
		"replicas": 3, "sweep": {"policy": ["sjf", "fcfs"]}}`
	status, doc, raw := postJob(t, srv.URL, `{"kind": "sweep", "spec": `+spec+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d body %s", status, raw)
	}
	if doc.Total != 6 { // 2 cells × 3 spec replicas
		t.Errorf("job total = %d, want 6 (from the spec's replicas)", doc.Total)
	}
}

// TestServeAsyncSweepJobLimit: concurrent running jobs are bounded. The
// occupying job is planted directly in the table (a real sweep could finish
// before the second request lands, making the race untestable).
func TestServeAsyncSweepJobLimit(t *testing.T) {
	api := New(Config{Parallelism: 1, MaxJobs: 1})
	api.jobMu.Lock()
	api.jobs["job-held"] = &job{id: "job-held", cancel: func() {}, phase: jobRunning}
	api.jobOrder = append(api.jobOrder, "job-held")
	api.jobMu.Unlock()
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, env, raw := doReq(t, "POST", srv.URL+"/v1/jobs", jobBody(1))
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != errJobLimit {
		t.Fatalf("second job: status %d body %s, want 429 job_limit", resp.StatusCode, raw)
	}

	// Releasing the held job frees a slot.
	api.jobs["job-held"].finish(nil, nil)
	if status, _, raw := postJob(t, srv.URL, jobBody(1)); status != http.StatusAccepted {
		t.Fatalf("freed slot: status %d body %s, want 202", status, raw)
	}
}
