package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"drapid"
)

// fleetDetectReq is a small sharded synthetic detect job for the HTTP
// tests: three pulses, DM grid to 100.
func fleetDetectReq(shards int) drapid.DetectJob {
	return drapid.DetectJob{
		Synth: &drapid.SynthSpec{
			NChans: 64, NSamples: 8192, TsampSec: 256e-6,
			Fch1MHz: 1500, FoffMHz: -2,
			SourceName: "FLEETSMOKE",
			Seed:       7,
			Pulses: []drapid.InjectedPulse{
				{TimeSec: 0.4, DM: 25, WidthMs: 2, SNR: 18},
				{TimeSec: 1.0, DM: 60, WidthMs: 3, SNR: 16},
				{TimeSec: 1.6, DM: 85, WidthMs: 4, SNR: 20},
			},
		},
		DMMax: 100, DMStep: 1,
		Threshold: 6.5,
		Shards:    shards,
	}
}

// TestReadyz pins the readiness contract: 200 with the fleet snapshot
// while serving, 503 (same body) once draining — the load-balancer signal
// /healthz liveness deliberately does not give.
func TestReadyz(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2), drapid.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(newServer(engine, nil).handler())
	defer ts.Close()

	var body struct {
		Ready bool               `json:"ready"`
		Fleet drapid.FleetStatus `json:"fleet"`
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !body.Ready {
		t.Fatalf("serving /readyz = %d ready=%v, want 200 ready", resp.StatusCode, body.Ready)
	}
	if !body.Fleet.Enabled || body.Fleet.WorkersAlive != 2 {
		t.Fatalf("fleet snapshot = %+v, want enabled with 2 alive workers", body.Fleet)
	}

	if err := engine.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body.Ready || !body.Fleet.Draining {
		t.Fatalf("draining /readyz = %d %+v, want 503 with draining set", resp.StatusCode, body)
	}

	// Draining submissions are refused with the same 503.
	var errBody map[string]any
	if resp := postJSON(t, ts.URL+"/v1/detect", fleetDetectReq(0), &errBody); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
}

// TestSmokeFleetHTTP is the cluster serving smoke test: a sharded detect
// job over POST /v1/detect on a fleet-enabled engine, candidates streamed
// back as NDJSON, fleet progress visible in the job's progress document.
func TestSmokeFleetHTTP(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(4), drapid.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(newServer(engine, nil).handler())
	defer ts.Close()

	var sub struct {
		ID         string `json:"id"`
		Candidates string `json:"candidates"`
	}
	if resp := postJSON(t, ts.URL+"/v1/detect", fleetDetectReq(2), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + sub.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var cand drapid.Candidate
		if err := json.Unmarshal(sc.Bytes(), &cand); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("sharded detect streamed no candidates")
	}

	var prog struct {
		Progress drapid.Progress `json:"progress"`
	}
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if prog.Progress.State != drapid.JobSucceeded {
		t.Fatalf("job state = %v, want succeeded", prog.Progress.State)
	}
	if f := prog.Progress.Fleet; f == nil || f.Shards != 2 || f.Done != 2 {
		t.Fatalf("progress fleet = %+v, want 2/2 shards done", prog.Progress.Fleet)
	}
}

// TestShardAxisOverHTTP: "dm" is the one shard axis a POST /v1/detect body
// names; "time" is a 400 naming the axis, even with the explicit
// NormWindow time sharding used to require and a fleet to shard over.
func TestShardAxisOverHTTP(t *testing.T) {
	engine, err := drapid.New(drapid.WithWorkers(2), drapid.WithFleetWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	ts := httptest.NewServer(newServer(engine, nil).handler())
	defer ts.Close()
	for axis, want := range map[string]int{drapid.ShardByDM: http.StatusAccepted, "time": http.StatusBadRequest} {
		spec := fleetDetectReq(2)
		spec.ShardBy, spec.NormWindow = axis, 1024
		var body struct {
			ID    string `json:"id"`
			Error string `json:"error"`
		}
		resp := postJSON(t, ts.URL+"/v1/detect", spec, &body)
		if resp.StatusCode != want {
			t.Fatalf("shard_by %q: status %d, want %d (%s)", axis, resp.StatusCode, want, body.Error)
		}
		if want == http.StatusBadRequest && !strings.Contains(body.Error, `"time"`) {
			t.Errorf("shard_by %q: error %q does not name the axis", axis, body.Error)
		}
		if job, ok := engine.Job(body.ID); ok {
			if _, err := job.Wait(context.Background()); err != nil {
				t.Fatalf("shard_by %q: %v", axis, err)
			}
		}
	}
}

// TestGracefulShutdown exercises the real signal path: a drapidd process
// gets SIGTERM while a detect job's NDJSON stream is mid-flight; the
// stream must run to completion and the process must exit cleanly — the
// -drain satellite, tested end to end.
func TestGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "drapidd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if out, err := build.Output(); err != nil {
		t.Fatalf("building drapidd: %v (%s)", err, out)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-workers", "4", "-drain", "30s")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(25 * time.Millisecond)
	}

	var sub struct {
		Candidates string `json:"candidates"`
	}
	if resp := postJSON(t, base+"/v1/detect", fleetDetectReq(0), &sub); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	resp, err := http.Get(base + sub.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// SIGTERM lands while the job runs and the stream is open.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream cut during drain after %d lines: %v", lines, err)
	}
	if lines == 0 {
		t.Fatal("drained stream delivered no candidates")
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if err != nil && (!errors.As(err, &exit) || exit.ExitCode() != 0) {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	// After shutdown the port is closed: new submissions fail at connect.
	if _, err := http.Get(base + "/readyz"); err == nil {
		t.Fatal("daemon still serving after drain completed")
	}
}

// TestWorkerMode boots a drapidd -worker process and drives one shard
// through the wire protocol: ping, then a sharded coordinator engine
// pointed at it end to end.
func TestWorkerMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "drapidd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building drapidd: %v (%s)", err, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-worker", "-addr", addr, "-workers", "2")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := http.Get(base + "/v1/shard/ping"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never became ready")
		}
		time.Sleep(25 * time.Millisecond)
	}

	engine, err := drapid.New(drapid.WithWorkers(2), drapid.WithRemoteWorkers(base))
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	req := fleetDetectReq(2)
	job, err := engine.SubmitDetect(context.Background(), drapid.DetectJob{
		Synth: req.Synth, DMMax: req.DMMax, DMStep: req.DMStep,
		Threshold: req.Threshold, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Records == 0 || res.Fleet == nil || res.Fleet.Done != 2 {
		t.Fatalf("worker-process run: records=%d fleet=%+v", res.Records, res.Fleet)
	}
}
