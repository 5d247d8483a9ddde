package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"drapid"
	"drapid/internal/obs"
)

// server routes the v1 HTTP API onto one engine and at most one loaded
// classification model. Handlers are thin: all semantics live in the
// public drapid package.
type server struct {
	engine *drapid.Engine
	// jsonCap bounds JSON request bodies (maxJobBody by default; tests
	// shrink it). The octet-stream detect endpoint is deliberately not
	// subject to it: its memory is bounded by the engine's block size, not
	// the body size, which is what lets it accept observations far larger
	// than any buffered JSON document could be.
	jsonCap int64
	// log receives one structured line per request (main sets it; nil —
	// the tests' default — logs nothing).
	log *slog.Logger

	mu    sync.RWMutex
	model *drapid.Classifier
}

func newServer(engine *drapid.Engine, model *drapid.Classifier) *server {
	return &server{engine: engine, model: model, jsonCap: maxJobBody}
}

// handler builds the route table:
//
//	POST /v1/jobs                 submit an identification job
//	POST /v1/detect               submit an end-to-end detection job
//	POST /v1/detect/stream        stream a raw SIGPROC body through a block-streaming detect job
//	GET  /v1/jobs                 list jobs with progress
//	GET  /v1/jobs/{id}            one job's progress
//	GET  /v1/jobs/{id}/candidates NDJSON candidate stream (live or replay)
//	GET  /v1/jobs/{id}/top        ranked sifted view (?n= bounds the page)
//	POST /v1/jobs/{id}/cancel     cancel a running job
//	DELETE /v1/jobs/{id}          evict a terminal job (retention)
//	POST /v1/classify             classify instances against the model
//	GET  /v1/models               loaded-model metadata
//	POST /v1/models               load a model document (drapid-model/v1)
//	GET  /metrics                 Prometheus text exposition of the engine registry
//	GET  /healthz                 liveness
//	GET  /readyz                  readiness + fleet state (503 while draining)
//
// The whole table is wrapped in obs.Instrument: request counters and
// latency histograms land in the engine's registry (served right back at
// /metrics), and each request logs one structured line. Note /debug/pprof
// is deliberately absent — profiling lives on the -debug-addr listener
// only (main.go).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", obs.Handler(s.engine.MetricsRegistry()))
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/detect", s.handleDetect)
	mux.HandleFunc("POST /v1/detect/stream", s.handleDetectStream)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleProgress)
	mux.HandleFunc("GET /v1/jobs/{id}/candidates", s.handleCandidates)
	mux.HandleFunc("GET /v1/jobs/{id}/top", s.handleTop)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleRemove)
	mux.HandleFunc("POST /v1/classify", s.handleClassify)
	mux.HandleFunc("GET /v1/models", s.handleModelInfo)
	mux.HandleFunc("POST /v1/models", s.handleLoadModel)
	return obs.Instrument(mux, s.engine.MetricsRegistry(), s.log, routeLabel)
}

// routeLabel normalises request paths into the bounded label set the
// metrics use: job IDs collapse to {id}, and anything outside the route
// table (scanners, typos) collapses to "other" so a hostile client
// cannot mint unbounded series.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	if rest, ok := strings.CutPrefix(p, "/v1/jobs/"); ok && rest != "" {
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			switch rest[i:] {
			case "/candidates", "/top", "/cancel":
				return "/v1/jobs/{id}" + rest[i:]
			}
			return "other"
		}
		return "/v1/jobs/{id}"
	}
	switch p {
	case "/healthz", "/readyz", "/metrics", "/v1/jobs", "/v1/detect",
		"/v1/detect/stream", "/v1/classify", "/v1/models":
		return p
	}
	return "other"
}

// writeJSON renders one JSON document response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// errorJSON renders {"error": ...} with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "workers": s.engine.Workers()})
}

// handleReady is readiness, distinct from /healthz liveness: it reports
// whether the daemon is accepting work, plus the fleet state behind that
// answer (workers known/alive, shards queued/running/resubmitted, journal
// depth). Not ready — 503, same body — when draining toward shutdown, or
// when a configured fleet has no alive workers left to run shards on.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	fs := s.engine.FleetStatus()
	ready := !fs.Draining && (!fs.Enabled || fs.WorkersAlive > 0)
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "fleet": fs})
}

// submitStatus maps a submission error: 503 while draining (the
// load-balancer signal to take the instance out of rotation), 400
// otherwise.
func submitStatus(err error) int {
	if errors.Is(err, drapid.ErrDraining) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// Request-body ceilings: survey inputs are tens-of-MB CSV datasets, model
// documents and classify batches are far smaller. Oversized bodies fail
// decoding with a 400 instead of exhausting server memory.
const (
	maxJobBody      = 512 << 20
	maxModelBody    = 64 << 20
	maxClassifyBody = 16 << 20
)

// decodeJob decodes a JSON job body — an IdentifyJob or a DetectJob in
// its own JSON form — refusing unknown fields, so a misspelt knob is a 400
// rather than silently left at its default.
func (s *server) decodeJob(w http.ResponseWriter, r *http.Request, spec any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.jsonCap))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		errorJSON(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// accepted is the 202 body of a submitted job: its state and links.
func accepted(job *drapid.Job) map[string]any {
	return map[string]any{
		"id":         job.ID(),
		"state":      job.State().String(),
		"progress":   "/v1/jobs/" + job.ID(),
		"candidates": "/v1/jobs/" + job.ID() + "/candidates",
	}
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec drapid.IdentifyJob
	if !s.decodeJob(w, r, &spec) {
		return
	}
	// The job must outlive this request, so it is NOT bound to r.Context();
	// clients stop it via the cancel endpoint.
	job, err := s.engine.Submit(context.Background(), spec)
	if err != nil {
		errorJSON(w, submitStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, accepted(job))
}

// handleDetect submits the body, a DetectJob in its JSON form (a
// filterbank arrives base64-encoded, or a synth spec generates one
// server-side).
func (s *server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var spec drapid.DetectJob
	if !s.decodeJob(w, r, &spec) {
		return
	}
	// Like identification jobs, detect jobs outlive the request; clients
	// stop them via the cancel endpoint.
	job, err := s.engine.SubmitDetect(context.Background(), spec)
	if err != nil {
		errorJSON(w, submitStatus(err), "%v", err)
		return
	}
	body := accepted(job)
	body["top"] = "/v1/jobs/" + job.ID() + "/top"
	writeJSON(w, http.StatusAccepted, body)
}

// detectQuery reads the stream endpoint's query into a DetectJob: every
// scalar knob by its JSON name, except BlockSamples, whose one query name
// is the short block, and the sharding knobs, which a stream refuses; plus
// top (Sift.Top). The other knobs are body-only, and an unknown or
// malformed parameter is an error.
func detectQuery(q url.Values) (drapid.DetectJob, error) {
	var spec drapid.DetectJob
	knobs := map[string]reflect.Value{
		"block": reflect.ValueOf(&spec.BlockSamples).Elem(),
		"top":   reflect.ValueOf(&spec.Sift.Top).Elem(),
	}
	v := reflect.ValueOf(&spec).Elem()
	for i := range v.NumField() {
		field := v.Type().Field(i)
		switch field.Name {
		case "BlockSamples", "Shards", "ShardBy":
			continue
		}
		name, _, _ := strings.Cut(field.Tag.Get("json"), ",")
		switch f := v.Field(i); f.Kind() {
		case reflect.String, reflect.Bool, reflect.Int, reflect.Float64:
			if name != "-" {
				knobs[name] = f
			}
		}
	}
	for name, vals := range q {
		f, ok := knobs[name]
		if !ok {
			return spec, fmt.Errorf("unknown query parameter %q (the query takes DetectJob's scalar search knobs by name, block and top; the rest are body-only)", name)
		}
		var err error
		switch val := vals[0]; f.Kind() {
		case reflect.String:
			f.SetString(val)
		case reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(val)
			f.SetBool(b)
		case reflect.Int:
			var n int64
			n, err = strconv.ParseInt(val, 10, 0)
			f.SetInt(n)
		case reflect.Float64:
			var x float64
			x, err = strconv.ParseFloat(val, 64)
			f.SetFloat(x)
		}
		if err != nil {
			return spec, fmt.Errorf("bad %s %q", name, vals[0])
		}
	}
	return spec, nil
}

// queryInt parses an optional integer query parameter.
func queryInt(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}

// handleDetectStream runs a block-streaming detect job over a raw
// application/octet-stream SIGPROC body: no base64 inflation, no body
// buffering (memory is bounded by the block size, so the body may far
// exceed the JSON endpoints' size cap), and candidates flush back as
// NDJSON while the body is still uploading. Search knobs arrive as query
// parameters (detectQuery). Unlike POST /v1/detect, the job is bound to the
// request: a departing client cancels it, and the stream always
// terminates with a final record — {"done": ..., "result": ...} on
// success, {"error": ...} on failure or cancellation.
func (s *server) handleDetectStream(w http.ResponseWriter, r *http.Request) {
	spec, err := detectQuery(r.URL.Query())
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec.FilterbankStream = r.Body
	// The response streams while the body is still being read: switch the
	// connection to full duplex and lift the server's read deadline, which
	// is sized for buffered JSON bodies, not hours-long uploads.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	rc.SetReadDeadline(time.Time{})

	job, err := s.engine.SubmitDetect(r.Context(), spec)
	if err != nil {
		errorJSON(w, submitStatus(err), "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc.Flush() // headers out now: the client sees the stream open while it uploads
	enc := json.NewEncoder(w)
	for c, err := range job.ResultsContext(r.Context()) {
		if r.Context().Err() != nil {
			return // client went away; the request context cancels the job
		}
		if err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
			rc.Flush()
			return
		}
		if encErr := enc.Encode(c); encErr != nil {
			return
		}
		rc.Flush()
	}
	res, err := job.Wait(r.Context())
	if err != nil {
		enc.Encode(map[string]string{"error": err.Error()})
	} else {
		enc.Encode(map[string]any{"done": true, "result": res})
	}
	rc.Flush()
}

func (s *server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.engine.Jobs()
	out := make([]map[string]any, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, map[string]any{"id": j.ID(), "progress": j.Progress()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// job resolves the {id} path value, writing a 404 on miss.
func (s *server) job(w http.ResponseWriter, r *http.Request) (*drapid.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.engine.Job(id)
	if !ok {
		errorJSON(w, http.StatusNotFound, "no such job %q", id)
	}
	return j, ok
}

func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID(), "progress": j.Progress()})
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID(), "state": j.State().String()})
}

// handleRemove evicts a terminal job so a long-lived server's memory does
// not grow with every job ever submitted.
func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.engine.Remove(id); err != nil {
		status := http.StatusNotFound
		if _, ok := s.engine.Job(id); ok {
			status = http.StatusConflict // exists but not terminal
		}
		errorJSON(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "removed": true})
}

// handleCandidates streams the job's candidates as NDJSON, one JSON
// candidate per line, flushed as they are identified. The stream replays
// from the start on every request (jobs keep their candidate log), so it
// works mid-run and after completion. A failed or cancelled job ends the
// stream with a final {"error": ...} line.
func (s *server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for c, err := range j.ResultsContext(r.Context()) {
		if r.Context().Err() != nil {
			return // client went away
		}
		if err != nil {
			enc.Encode(map[string]string{"error": err.Error()})
			break
		}
		if encErr := enc.Encode(c); encErr != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if flusher != nil {
		flusher.Flush()
	}
}

// handleTop returns the job's ranked sifted view — the top candidate
// groups in canonical order plus the cross-matched repeat sources — as one
// JSON document. ?n= bounds the page (default: the job's configured Top).
// The view is a consistent snapshot: on a still-streaming job it covers
// the segments identified so far, and it is safe to poll concurrently with
// the ingest. Jobs without sifting (identify jobs, Sift.Disable) return
// empty lists.
func (s *server) handleTop(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	n, err := queryInt(r.URL.Query(), "n")
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	view := j.Top(n)
	if view.Top == nil {
		view.Top = []drapid.TopCandidate{}
	}
	if view.Sources == nil {
		view.Sources = []drapid.Source{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID(), "state": j.State().String(), "top": view.Top, "sources": view.Sources})
}

// classifyRequest is the POST /v1/classify body: feature vectors in the
// model's feature order.
type classifyRequest struct {
	Instances [][]float64 `json:"instances"`
}

func (s *server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	model := s.model
	s.mu.RUnlock()
	if model == nil {
		errorJSON(w, http.StatusServiceUnavailable, "no model loaded (POST /v1/models or start with -model)")
		return
	}
	var req classifyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxClassifyBody)).Decode(&req); err != nil {
		errorJSON(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Instances) == 0 {
		errorJSON(w, http.StatusBadRequest, "no instances")
		return
	}
	preds := make([]string, len(req.Instances))
	for i, x := range req.Instances {
		label, err := model.Predict(x)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "instance %d: %v", i, err)
			return
		}
		preds[i] = label
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"learner":     model.Learner(),
		"classes":     model.Classes(),
		"predictions": preds,
	})
}

func (s *server) handleModelInfo(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	model := s.model
	s.mu.RUnlock()
	if model == nil {
		errorJSON(w, http.StatusNotFound, "no model loaded")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"learner":  model.Learner(),
		"features": model.Features(),
		"classes":  model.Classes(),
	})
}

// handleLoadModel installs a model from a drapid-model/v1 document.
func (s *server) handleLoadModel(w http.ResponseWriter, r *http.Request) {
	model, err := drapid.LoadClassifier(http.MaxBytesReader(w, r.Body, maxModelBody))
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.mu.Lock()
	s.model = model
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"learner":  model.Learner(),
		"features": len(model.Features()),
		"classes":  model.Classes(),
	})
}
