package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"sortinghat/ftype"
	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/obs"
)

// DeadlineHeader carries the caller's remaining time budget in whole
// milliseconds. The gateway stamps it on every forwarded leg (its own
// deadline minus a network-slack allowance) and the replica clamps its
// server-side timeout down to it, so a replica never keeps working on a
// column whose answer the gateway has already given up waiting for.
const DeadlineHeader = "X-Deadline-Ms"

// InferRequest is the JSON body of POST /v1/infer: a batch of raw
// columns, typically every column of one ingested table.
type InferRequest struct {
	Columns []InferColumn `json:"columns"`
}

// InferColumn is one raw column of an inference batch.
type InferColumn struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// InferResponse is the JSON body answering POST /v1/infer. Predictions
// are index-aligned with the request's columns. ModelVersion is the
// operator label of the model serving when the response was built; a
// batch racing a hot reload may contain columns answered by the previous
// version (each column is internally consistent — see Server.Reload).
type InferResponse struct {
	Model           string            `json:"model"`
	ModelVersion    string            `json:"model_version"`
	Predictions     []InferPrediction `json:"predictions"`
	CacheHits       int               `json:"cache_hits"`
	DegradedColumns int               `json:"degraded_columns"`
	ElapsedMS       float64           `json:"elapsed_ms"`
}

// InferPrediction is the inference result for one column.
type InferPrediction struct {
	Name       string             `json:"name"`
	Type       string             `json:"type"`
	Confidence float64            `json:"confidence"`
	Probs      map[string]float64 `json:"probs"`
	CacheHit   bool               `json:"cache_hit"`
	// Degraded marks rule-fallback answers (ML path faulted or breaker
	// open); Error carries the per-column failure when there was one.
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
}

// HealthResponse is the JSON body answering GET /healthz. Status is "ok",
// or "degraded" while the prediction breaker is not closed and columns
// are answered by the rule fallback.
type HealthResponse struct {
	Status        string  `json:"status"`
	Breaker       string  `json:"breaker"`
	Model         string  `json:"model"`
	ModelVersion  string  `json:"model_version"`
	ModelSeq      uint64  `json:"model_seq"`
	Classes       int     `json:"classes"`
	Workers       int     `json:"workers"`
	CacheEntries  int     `json:"cache_entries"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ReloadRequest is the JSON body of POST /admin/reload: the path of a
// versioned gob model snapshot (written by `sortinghat train -out` /
// core.Pipeline.SaveFile) to hot-swap in, plus an optional operator
// label for the new version (empty derives "v<seq>").
type ReloadRequest struct {
	Path    string `json:"path"`
	Version string `json:"version,omitempty"`
}

// ReloadResponse is the JSON body answering a successful POST
// /admin/reload.
type ReloadResponse struct {
	Model           string `json:"model"`
	Version         string `json:"version"`
	PreviousVersion string `json:"previous_version"`
	Seq             uint64 `json:"seq"`
	CachePurged     int    `json:"cache_purged"`
}

// TracesResponse is the JSON body answering GET /debug/traces: the
// bounded ring of recent finished request traces, oldest first.
type TracesResponse struct {
	Count  int            `json:"count"`
	Traces []obs.SpanJSON `json:"traces"`
}

// Handler returns the server's HTTP API: the front door's endpoints
// (POST /v1/infer, POST /v1/infer/csv, GET /healthz, GET /metrics, GET
// /debug/traces, GET /debug/flight and, with Config.EnablePprof,
// /debug/pprof/) plus POST /admin/reload. Every request gets a request
// ID (echoed as X-Request-Id and attached to the request's trace span),
// continues an incoming traceparent so this process's spans join the
// caller's distributed trace, and, when Config.Logger is set, emits one
// structured access-log record.
func (s *Server) Handler() http.Handler {
	return s.front.Handler(Route{Pattern: "/admin/reload", Method: http.MethodPost, Handle: s.handleReload})
}

// infer is the replica's InferFunc: it runs the batch through the worker
// pool and renders per-column predictions. It attaches the request's
// phase accumulator to the context the workers see, so the flight record
// carries the queue, hash, cache, featurize and predict totals and the
// count of columns whose deadline expired in queue.
//
//shvet:hotpath the replica's answer to every infer request
func (s *Server) infer(ctx context.Context, cols []data.Column, start time.Time, phases []obs.Phase) (Answer, error) {
	ctx, acc := withPhases(ctx)
	results, err := s.InferBatch(ctx, cols)
	ans := Answer{Phases: acc.appendPhases(phases)}
	if n := acc.expiredCount(); n > 0 {
		ans.Notes = []string{"deadline expired in queue for " + strconv.FormatInt(n, 10) + " columns (never featurized)"}
	}
	if err != nil {
		return ans, err
	}

	m := s.current()
	resp := InferResponse{
		Model:        m.pipe.Name(),
		ModelVersion: m.version,
		Predictions:  make([]InferPrediction, len(results)),
	}
	for i, res := range results {
		if res.CacheHit {
			resp.CacheHits++
		}
		if res.Degraded {
			resp.DegradedColumns++
		}
		resp.Predictions[i] = InferPrediction{
			Name:       res.Name,
			Type:       res.Type.String(),
			Confidence: res.Confidence,
			Probs:      probsByClass(res.Probs),
			CacheHit:   res.CacheHit,
			Degraded:   res.Degraded,
			Error:      res.Err,
		}
	}
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	ans.Body = resp
	return ans, nil
}

// probsByClass labels a class-indexed probability vector with the paper's
// class names. encoding/json emits map keys in sorted order, so the wire
// form is deterministic.
func probsByClass(probs []float64) map[string]float64 {
	out := make(map[string]float64, len(probs))
	for i, p := range probs {
		out[ftype.FeatureType(i).String()] = p
	}
	return out
}

// health is the replica's GET /healthz body: model metadata, with
// Status "degraded" instead of "ok" while the prediction breaker is open
// or probing (columns served by the rule fallback); it recovers to "ok"
// once a half-open probe succeeds and the breaker closes.
func (s *Server) health() any {
	status := "ok"
	if s.Degraded() {
		status = "degraded"
	}
	m := s.current()
	return HealthResponse{
		Status:        status,
		Breaker:       s.breaker.State().String(),
		Model:         m.pipe.Name(),
		ModelVersion:  m.version,
		ModelSeq:      m.seq,
		Classes:       m.pipe.Opts.Classes,
		Workers:       s.cfg.Workers,
		CacheEntries:  s.cache.len(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
}

// handleReload hot-swaps the serving model from a gob snapshot on local
// disk (POST /admin/reload, body ReloadRequest). The swap is atomic and
// zero-downtime — in-flight columns finish on the model they loaded —
// and version-keyed caching guarantees no stale entry survives the swap
// (see Server.Reload). Failures leave the current model serving and are
// counted in sortinghatd_model_reload_errors_total. The endpoint trusts
// its network like the rest of the admin surface: run fleets on an
// internal network or behind an authenticating proxy.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.met.reloadErrors.Add(1)
		writeError(w, http.StatusBadRequest, "decoding request: "+err.Error())
		return
	}
	if req.Path == "" {
		s.met.reloadErrors.Add(1)
		writeError(w, http.StatusBadRequest, "missing \"path\": the gob model snapshot to load")
		return
	}
	pipe, err := core.LoadFile(req.Path)
	if err != nil {
		s.met.reloadErrors.Add(1)
		if s.logger != nil {
			s.logger.Error("model reload failed", "path", req.Path, "err", err.Error())
		}
		writeError(w, http.StatusBadRequest, "loading model: "+err.Error())
		return
	}
	prev, version, seq, purged := s.Reload(pipe, req.Version)
	writeJSON(w, http.StatusOK, ReloadResponse{
		Model:           pipe.Name(),
		Version:         version,
		PreviousVersion: prev,
		Seq:             seq,
		CachePurged:     purged,
	})
}
