package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"atlarge"
)

// doReq issues one request and decodes the typed error envelope.
func doReq(t *testing.T, method, url, body string) (*http.Response, errorEnvelope, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp)
	var env errorEnvelope
	_ = json.Unmarshal([]byte(raw), &env)
	return resp, env, raw
}

// TestErrorEnvelopeShape drives every error family through its endpoint and
// checks the one envelope shape: {"error": {"code", "message"}} with the
// expected status and stable machine-readable code.
func TestErrorEnvelopeShape(t *testing.T) {
	srv := httptest.NewServer(New(Config{Registry: testRegistry(t), Parallelism: 2, MaxReplicas: 8, MaxCells: 4}))
	defer srv.Close()

	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"bad seed", "GET", "/v1/run?seed=x", "", http.StatusBadRequest, errBadRequest},
		{"bad replicas", "GET", "/v1/run?replicas=x", "", http.StatusBadRequest, errBadRequest},
		{"replicas out of range", "GET", "/v1/run?replicas=99", "", http.StatusBadRequest, errBadRequest},
		{"unknown experiment", "GET", "/v1/run?ids=nope", "", http.StatusNotFound, errNotFound},
		{"stream bad seed", "GET", "/v1/run/stream?seed=x", "", http.StatusBadRequest, errBadRequest},
		{"sweep bad spec", "POST", "/v1/jobs", `{"kind": "sweep", "spec": {"version": 1, "name": "x", "policy": "nope"}}`, http.StatusBadRequest, errBadRequest},
		{"sweep bad seed", "POST", "/v1/jobs", `{"kind": "sweep", "spec": ` + sweepSpecBody + `, "seed": "x"}`, http.StatusBadRequest, errBadRequest},
		{"job workload trace", "POST", "/v1/jobs", `{"kind": "sweep", "spec": {"version": 2, "name": "t", "domain": "sched", "workload": {"trace": "/etc/hostname"}}}`, http.StatusBadRequest, errBadRequest},
		{"job body too large", "POST", "/v1/jobs", `{"kind": "sweep", "spec": {"pad": "` + strings.Repeat("x", maxSpecBytes+1) + `"}}`, http.StatusRequestEntityTooLarge, errPayloadTooLarge},
		{"job bad body", "POST", "/v1/jobs", "not json", http.StatusBadRequest, errBadRequest},
		{"job unknown kind", "POST", "/v1/jobs", `{"kind": "bake", "spec": {}}`, http.StatusBadRequest, errBadRequest},
		{"job missing spec", "POST", "/v1/jobs", `{"kind": "sweep"}`, http.StatusBadRequest, errBadRequest},
		{"job unknown field", "POST", "/v1/jobs", `{"kind": "sweep", "spec": {}, "spek": 1}`, http.StatusBadRequest, errBadRequest},
		{"job negative replicas", "POST", "/v1/jobs", `{"kind": "sweep", "spec": ` + sweepSpecBody + `, "replicas": -1}`, http.StatusBadRequest, errBadRequest},
		{"unknown job", "GET", "/v1/jobs/feedbeef", "", http.StatusNotFound, errNotFound},
		{"unknown job result", "GET", "/v1/jobs/feedbeef/result", "", http.StatusNotFound, errNotFound},
		{"unknown job cancel", "DELETE", "/v1/jobs/feedbeef", "", http.StatusNotFound, errNotFound},
		{"bad state filter", "GET", "/v1/jobs?state=paused", "", http.StatusBadRequest, errBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, env, raw := doReq(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (body %s)", env.Error.Code, tc.wantCode, raw)
			}
			if env.Error.Message == "" {
				t.Errorf("empty message (body %s)", raw)
			}
			// The envelope is the whole body: exactly one top-level "error"
			// object with no stray fields.
			var top map[string]map[string]any
			if err := json.Unmarshal([]byte(raw), &top); err != nil || len(top) != 1 {
				t.Errorf("body is not a bare error envelope: %s", raw)
			}
		})
	}
}

// TestRateLimitEnvelope: an over-budget client gets 429 rate_limited with
// both the Retry-After header and the retry_after envelope field.
func TestRateLimitEnvelope(t *testing.T) {
	srv := httptest.NewServer(New(Config{Registry: testRegistry(t), Parallelism: 2, Rate: 0.001, Burst: 1}))
	defer srv.Close()

	req, _ := http.NewRequest("GET", srv.URL+"/v1/run?ids=alpha", nil)
	req.Header.Set("X-Atlarge-Client", "test-client")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d", resp.StatusCode)
	}

	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	var env errorEnvelope
	if err := json.Unmarshal([]byte(raw), &env); err != nil {
		t.Fatalf("bad envelope %s: %v", raw, err)
	}
	if env.Error.Code != errRateLimited || env.Error.RetryAfter < 1 {
		t.Errorf("envelope = %+v, want code %s with retry_after >= 1", env.Error, errRateLimited)
	}
}

// blockingExperiment builds an experiment whose hook runs before the report
// is produced — tests park it on a channel to hold tasks on the pool.
func blockingExperiment(id string, hook func(seed int64)) atlarge.Experiment {
	return atlarge.Experiment{
		ID:    id,
		Title: "experiment " + id,
		Order: 99,
		Run: func(seed int64) (*atlarge.Report, error) {
			hook(seed)
			rep := atlarge.NewReport(id, "experiment "+id)
			rep.AddMetric(atlarge.Metric{Name: "value", Value: 1})
			return rep, nil
		},
	}
}

// TestQueueBackpressure: once the pending-task queue exceeds the bound, a
// request that would enqueue work is refused with 429 queue_full — but a
// non-submitting request is still admitted.
func TestQueueBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	reg := testRegistry(t)
	reg.MustRegister(blockingExperiment("block", func(seed int64) {
		started <- struct{}{}
		<-release
	}))

	api := New(Config{Registry: reg, Parallelism: 1, QueueDepth: 1})
	srv := httptest.NewServer(api)
	defer srv.Close()
	defer close(release)

	blocked := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/run?ids=block&replicas=2")
		if err != nil {
			blocked <- 0
			return
		}
		resp.Body.Close()
		blocked <- resp.StatusCode
	}()
	<-started // one replica is on the pool; both count as pending

	resp, env, raw := doReq(t, "GET", srv.URL+"/v1/run?ids=block&seed=7", "")
	if resp.StatusCode != http.StatusTooManyRequests || env.Error.Code != errQueueFull {
		t.Fatalf("overload response: status %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" || env.Error.RetryAfter < 1 {
		t.Errorf("queue refusal lacks Retry-After: header %q, field %d",
			resp.Header.Get("Retry-After"), env.Error.RetryAfter)
	}

	// Non-submitting endpoints are never refused by backpressure.
	if resp, _ := get(t, srv.URL+"/v1/experiments"); resp.StatusCode != http.StatusOK {
		t.Errorf("catalog refused under overload: %d", resp.StatusCode)
	}

	release <- struct{}{}
	release <- struct{}{}
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("blocked run finished with %d", code)
	}
}
