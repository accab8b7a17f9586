package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"atlarge/internal/dist"
	"atlarge/internal/scenario"
)

// startDistWorkers boots k sweep workers and returns their addresses.
func startDistWorkers(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		w := &dist.Worker{Build: map[string]dist.Builder{scenario.DistJobKind: scenario.WorkerBuilder()}, Parallelism: 2}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		addrs[i] = srv.URL
	}
	return addrs
}

// runJobTo submits a sweep job body, waits for it to finish, and returns its
// result bytes.
func runJobTo(t *testing.T, url, body string) string {
	t.Helper()
	status, doc, raw := postJob(t, url, body)
	if status != http.StatusAccepted {
		t.Fatalf("job submit status = %d: %s", status, raw)
	}
	if final := waitJobDone(t, url, doc.ID); final.State != jobDone {
		t.Fatalf("job ended %q, want done: %+v", final.State, final)
	}
	resp, got := get(t, url+"/v1/jobs/"+doc.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job result status = %d: %s", resp.StatusCode, got)
	}
	return got
}

// TestServeDistributedSweep: a server with Config.Workers executes sweep
// jobs across them — the job result is byte-identical to a worker-less
// server's, and the dist metric families report the work.
func TestServeDistributedSweep(t *testing.T) {
	body := `{"kind": "sweep", "spec": ` + sweepSpecBody + `}`
	local := httptest.NewServer(New(Config{Registry: testRegistry(t), Parallelism: 2}))
	t.Cleanup(local.Close)
	want := runJobTo(t, local.URL, body)

	srv := New(Config{Registry: testRegistry(t), Parallelism: 2, Workers: startDistWorkers(t, 2)})
	if err := srv.ConnectWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if got := runJobTo(t, ts.URL, body); got != want {
		t.Error("distributed job result differs from the worker-less server's")
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	for _, family := range []string{
		"atlarge_dist_tasks_inflight 0",
		"atlarge_dist_redispatched_total 0",
		`atlarge_dist_worker_completions_total{worker=`,
	} {
		if !strings.Contains(metricsBody, family) {
			t.Errorf("/metrics is missing %q after a distributed sweep", family)
		}
	}
}

// TestServeDistributedJob: a distributed job's result bytes match an
// in-process scenario.Run of the same (spec, seed, replicas).
func TestServeDistributedJob(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t), Parallelism: 2, Workers: startDistWorkers(t, 2)})
	if err := srv.ConnectWorkers(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if got := runJobTo(t, ts.URL, jobBody(13)); got != inProcessSweep(t, sweepSpecBody, seedOf(13), 2) {
		t.Error("distributed job result differs from the in-process sweep")
	}
}

// TestConnectWorkersFailFast: an unreachable worker fails ConnectWorkers
// instead of surfacing later inside someone's sweep.
func TestConnectWorkersFailFast(t *testing.T) {
	srv := New(Config{Registry: testRegistry(t), Workers: []string{"127.0.0.1:1"}})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.ConnectWorkers(ctx); err == nil {
		t.Fatal("ConnectWorkers succeeded against an unreachable address")
	}
}
