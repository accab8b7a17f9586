package api

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"atlarge/internal/scenario"
)

// jobBody wraps sweepSpecBody in a POST /v1/jobs request with a seed.
func jobBody(seed int64) string {
	return `{"kind": "sweep", "spec": ` + sweepSpecBody + `, "seed": ` + strconvI64(seed) + `, "replicas": 2}`
}

func strconvI64(v int64) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// postJob submits a job and decodes the resource document.
func postJob(t *testing.T, url, body string) (int, jobDoc, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp)
	var doc jobDoc
	_ = json.Unmarshal([]byte(raw), &doc)
	return resp.StatusCode, doc, raw
}

// inProcessSweep runs a spec body through scenario.Run in this process and
// returns its JSON report — the bytes `atlarge scenario sweep --format json`
// prints, and the bytes a /v1/jobs result must equal. A nil seed and zero
// replicas fall back to the spec's own values, as they do for a job.
func inProcessSweep(t *testing.T, specBody string, seed *int64, replicas int) string {
	t.Helper()
	spec, err := scenario.Parse(strings.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(context.Background(), spec, cells, scenario.Options{Seed: seed, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// seedOf returns a pointer to a seed literal.
func seedOf(v int64) *int64 { return &v }

// waitJobDone polls GET /v1/jobs/{id} until the job leaves running.
func waitJobDone(t *testing.T, url, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, url+"/v1/jobs/"+id)
		var doc jobDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("bad job doc %s: %v", body, err)
		}
		if doc.State != jobRunning {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck running: %+v", doc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobsLifecycle drives the resource end to end: submit, list (with
// state filter), poll, and fetch a result byte-identical to the in-process
// sweep of the same (spec, seed, replicas).
func TestJobsLifecycle(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()

	status, doc, raw := postJob(t, srv.URL, jobBody(5))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	if doc.ID == "" || doc.Kind != jobKindSweep || doc.Name != "api-async" || doc.Links.Self != "/v1/jobs/"+doc.ID {
		t.Fatalf("submit doc = %+v", doc)
	}

	done := waitJobDone(t, srv.URL, doc.ID)
	if done.State != jobDone || done.Done != 4 || done.Total != 4 || done.Links.Result != "/v1/jobs/"+doc.ID+"/result" {
		t.Fatalf("finished doc = %+v", done)
	}

	// The list shows the job; the state filter includes and excludes it.
	_, listBody := get(t, srv.URL+"/v1/jobs")
	if !strings.Contains(listBody, doc.ID) {
		t.Errorf("job missing from list: %s", listBody)
	}
	_, doneList := get(t, srv.URL+"/v1/jobs?state=done")
	if !strings.Contains(doneList, doc.ID) {
		t.Errorf("job missing from ?state=done: %s", doneList)
	}
	_, failedList := get(t, srv.URL+"/v1/jobs?state=failed")
	if strings.Contains(failedList, doc.ID) {
		t.Errorf("done job listed under ?state=failed: %s", failedList)
	}

	_, jobResult := get(t, srv.URL+"/v1/jobs/"+doc.ID+"/result")
	if jobResult != inProcessSweep(t, sweepSpecBody, seedOf(5), 2) {
		t.Error("job result bytes differ from the in-process sweep")
	}
}

// TestJobsDedup: identical submissions share one job — 202 on create, 200
// with the same ID after.
func TestJobsDedup(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2}))
	defer srv.Close()

	status, first, raw := postJob(t, srv.URL, jobBody(11))
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d, body %s", status, raw)
	}
	status, second, raw := postJob(t, srv.URL, jobBody(11))
	if status != http.StatusOK || second.ID != first.ID {
		t.Fatalf("dup submit: status %d, id %q (want 200, %q); body %s", status, second.ID, first.ID, raw)
	}

	// A different seed is different work: fresh job, fresh ID.
	status, other, _ := postJob(t, srv.URL, jobBody(12))
	if status != http.StatusAccepted || other.ID == first.ID {
		t.Errorf("distinct submit: status %d, id %q", status, other.ID)
	}
}

// TestJobsEvictedResult: a job evicted from the finished-job history
// answers 410 result_evicted — not 404 — on later fetches.
func TestJobsEvictedResult(t *testing.T) {
	srv := httptest.NewServer(New(Config{Parallelism: 2, KeepJobs: 1}))
	defer srv.Close()

	_, first, _ := postJob(t, srv.URL, jobBody(21))
	waitJobDone(t, srv.URL, first.ID)
	_, second, _ := postJob(t, srv.URL, jobBody(22))
	waitJobDone(t, srv.URL, second.ID)

	resp, env, raw := doReq(t, "GET", srv.URL+"/v1/jobs/"+first.ID+"/result", "")
	if resp.StatusCode != http.StatusGone || env.Error.Code != errResultEvicted {
		t.Fatalf("evicted result: status %d, body %s", resp.StatusCode, raw)
	}
	resp, env, raw = doReq(t, "GET", srv.URL+"/v1/jobs/"+first.ID, "")
	if resp.StatusCode != http.StatusGone || env.Error.Code != errResultEvicted {
		t.Fatalf("evicted status: status %d, body %s", resp.StatusCode, raw)
	}
	// The surviving job is unaffected.
	if resp, _ := get(t, srv.URL+"/v1/jobs/"+second.ID+"/result"); resp.StatusCode != http.StatusOK {
		t.Errorf("surviving job result: status %d", resp.StatusCode)
	}
}

// TestJobsDurableRestart: with a state dir, a finished job survives a
// server restart — a fresh Server over the same directory re-lists it and
// serves identical result bytes without re-running anything.
func TestJobsDurableRestart(t *testing.T) {
	dir := t.TempDir()

	api1 := New(Config{Parallelism: 2, StateDir: dir})
	srv1 := httptest.NewServer(api1)
	_, doc, raw := postJob(t, srv1.URL, jobBody(31))
	if doc.ID == "" {
		t.Fatalf("submit: %s", raw)
	}
	waitJobDone(t, srv1.URL, doc.ID)
	_, want := get(t, srv1.URL+"/v1/jobs/"+doc.ID+"/result")
	// The in-memory job settles before its outcome hits the disk; wait for
	// the durable record so the "restart" below sees a finished job.
	store, err := newJobstore(dir)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, err := store.loadRecord(doc.ID)
		if err == nil && rec.State == jobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durable record never reached done (err %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv1.Close()

	api2 := New(Config{Parallelism: 2, StateDir: dir})
	resumed, restored, err := api2.RecoverJobs()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if resumed != 0 || restored != 1 {
		t.Fatalf("recover counts = (%d resumed, %d restored), want (0, 1)", resumed, restored)
	}
	srv2 := httptest.NewServer(api2)
	defer srv2.Close()
	resp, got := get(t, srv2.URL+"/v1/jobs/"+doc.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered result: status %d, body %s", resp.StatusCode, got)
	}
	if got != want {
		t.Error("recovered result bytes differ from the pre-restart result")
	}
}

// TestJobsInterruptedResume: a job whose durable record still says running
// (the server died mid-flight) relaunches on recovery and converges to the
// same bytes an in-process sweep produces.
func TestJobsInterruptedResume(t *testing.T) {
	dir := t.TempDir()

	// Forge the durable state an interrupted server leaves behind: a
	// running job record with no result.
	spec, err := scenario.Parse(strings.NewReader(sweepSpecBody))
	if err != nil {
		t.Fatal(err)
	}
	cells, err := scenario.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	const seed, replicas = 41, 2
	id, err := scenario.RunHash(spec, seed, replicas)
	if err != nil {
		t.Fatal(err)
	}
	store, err := newJobstore(dir)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.saveRecord(&jobRecord{
		ID: id, Kind: jobKindSweep, Name: spec.Name, Domain: spec.Domain,
		Seed: seed, Replicas: replicas, Total: len(cells) * replicas,
		State: jobRunning, Spec: specJSON,
	}); err != nil {
		t.Fatal(err)
	}

	api := New(Config{Parallelism: 2, StateDir: dir})
	resumed, restored, err := api.RecoverJobs()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if resumed != 1 || restored != 0 {
		t.Fatalf("recover counts = (%d resumed, %d restored), want (1, 0)", resumed, restored)
	}
	srv := httptest.NewServer(api)
	defer srv.Close()

	done := waitJobDone(t, srv.URL, id)
	if done.State != jobDone {
		t.Fatalf("resumed job = %+v", done)
	}
	_, resumedResult := get(t, srv.URL+"/v1/jobs/"+id+"/result")
	if resumedResult != inProcessSweep(t, sweepSpecBody, seedOf(seed), replicas) {
		t.Error("resumed result bytes differ from the in-process sweep")
	}

	// The outcome was persisted (runJob settles in-memory state first, so
	// poll briefly): one more restart would restore, not resume.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, err := store.loadRecord(id)
		if err == nil && rec.State == jobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durable record never reached done (err %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, ok := store.loadResult(id); !ok {
		t.Error("no durable result bytes after resume")
	}
}

// TestJobsCancelPersists: cancelling a durable job lands the cancelled
// state on disk (so a restart restores it as terminal instead of resuming),
// and its result answers 410 job_cancelled. A 64-replica sweep on one
// worker gives the DELETE time to land; if the job wins the race anyway the
// cancel-specific assertions are skipped.
// The test waits for the job to return before the temp dir is removed: a
// cancelled sweep still checkpoints the tasks it had in flight.
func TestJobsCancelPersists(t *testing.T) {
	dir := t.TempDir()
	api := New(Config{Parallelism: 1, StateDir: dir})
	defer api.waitJobs()
	srv := httptest.NewServer(api)
	defer srv.Close()

	body := `{"kind": "sweep", "spec": ` + sweepSpecBody + `, "seed": 51, "replicas": 64}`
	status, doc, raw := postJob(t, srv.URL, body)
	if status != http.StatusAccepted || doc.ID == "" {
		t.Fatalf("submit: status %d, body %s", status, raw)
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+doc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var afterCancel jobDoc
	if err := json.Unmarshal([]byte(readAll(t, res)), &afterCancel); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if afterCancel.State != jobCancelled && afterCancel.State != jobDone {
		t.Fatalf("after DELETE, job = %+v", afterCancel)
	}
	if afterCancel.State != jobCancelled {
		t.Skip("job finished before the cancel landed")
	}

	r, env, resBody := doReq(t, "GET", srv.URL+"/v1/jobs/"+doc.ID+"/result", "")
	if r.StatusCode != http.StatusGone || env.Error.Code != errJobCancelled {
		t.Fatalf("cancelled result: status %d, body %s", r.StatusCode, resBody)
	}

	store, err := newJobstore(dir)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rec, err := store.loadRecord(doc.ID)
		if err == nil && rec.State == jobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durable record never reached cancelled (err %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunHashMatchesCheckpointKey: the job ID equals the sweep checkpoint
// run hash, so a job's durable directory is its checkpoint directory.
func TestRunHashMatchesCheckpointKey(t *testing.T) {
	spec, err := scenario.Parse(bytes.NewReader([]byte(sweepSpecBody)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := scenario.RunHash(spec, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.RunHash(spec, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != 16 {
		t.Fatalf("RunHash not stable 16-hex: %q vs %q", a, b)
	}
	if c, _ := scenario.RunHash(spec, 6, 2); c == a {
		t.Error("seed change did not change the hash")
	}
}

// TestJobsRejectServerFilePath: a spec naming workload.trace would make the
// server stat and read a file of the client's choosing — and a malformed
// trace's parse error would echo its first line back in the job document.
// Such a submission is a 400 before anything touches the file: no job is
// created, and the file's contents appear in no response.
func TestJobsRejectServerFilePath(t *testing.T) {
	const secret = "SECRET_TOKEN=hunter2"
	path := filepath.Join(t.TempDir(), "credentials")
	if err := os.WriteFile(path, []byte(secret+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	api := New(Config{Parallelism: 1})
	defer api.waitJobs()
	srv := httptest.NewServer(api)
	defer srv.Close()

	spec := `{"version": 2, "name": "exfil", "domain": "sched",
		"workload": {"trace": ` + strconv.Quote(path) + `}, "seed": 3}`
	var bodies []string
	for _, body := range []string{
		`{"kind": "sweep", "spec": ` + spec + `}`,
		`{"kind": "sweep", "spec": ` + strings.Replace(spec, strconv.Quote(path), `"credentials"`, 1) + `}`,
	} {
		resp, env, raw := doReq(t, "POST", srv.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != errBadRequest {
			t.Errorf("trace spec: status %d body %s, want 400 bad_request", resp.StatusCode, raw)
		}
		bodies = append(bodies, raw)
	}
	if ids := listJobs(t, srv.URL); len(ids) != 0 {
		t.Errorf("rejected trace spec created jobs %v", ids)
	}
	parsed, err := scenario.Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	id, err := scenario.RunHash(parsed, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/v1/jobs", "/v1/jobs/" + id, "/v1/jobs/" + id + "/result", "/metrics"} {
		_, body := get(t, srv.URL+p)
		bodies = append(bodies, body)
	}
	for _, body := range bodies {
		if strings.Contains(body, "hunter2") || strings.Contains(body, "SECRET") {
			t.Fatalf("file contents leaked into a response: %s", body)
		}
	}
}
