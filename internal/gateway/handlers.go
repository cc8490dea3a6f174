package gateway

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"sortinghat/internal/data"
	"sortinghat/internal/obs"
	"sortinghat/internal/serve"
)

// BatchResponse is the JSON body answering the gateway's POST /v1/infer
// and /v1/infer/csv. Predictions are index-aligned with the request's
// columns regardless of how the batch was sharded. ModelVersions counts
// columns per answering model version — during a canary rollout this is
// where the canary's traffic share shows up; the "rules/fallback" pair
// appears when the gateway answered columns locally.
type BatchResponse struct {
	Gateway         string                  `json:"gateway"`
	Model           string                  `json:"model"`
	ModelVersions   map[string]int          `json:"model_versions"`
	Predictions     []serve.InferPrediction `json:"predictions"`
	CacheHits       int                     `json:"cache_hits"`
	DegradedColumns int                     `json:"degraded_columns"`
	ReroutedColumns int                     `json:"rerouted_columns"`
	HedgedRequests  int                     `json:"hedged_requests"`
	Shards          int                     `json:"shards"`
	ElapsedMS       float64                 `json:"elapsed_ms"`
}

// FleetHealth is the JSON body answering the gateway's GET /healthz.
// Status is "ok" while at least one replica routes normally, "degraded"
// otherwise (the gateway still answers, worst case from its local rule
// fallback).
type FleetHealth struct {
	Status        string          `json:"status"`
	Replicas      []ReplicaStatus `json:"replicas"`
	UptimeSeconds float64         `json:"uptime_seconds"`
}

// ReplicaStatus is one replica's row in FleetHealth: identity, probe
// and breaker state, ring ownership share, and lifetime shard traffic.
type ReplicaStatus struct {
	Replica   string  `json:"replica"`
	Addr      string  `json:"addr"`
	Health    string  `json:"health"`
	Breaker   string  `json:"breaker"`
	Ownership float64 `json:"ownership"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
}

// Handler returns the gateway's HTTP API — the daemon's front door,
// fleet-wide: POST /v1/infer, POST /v1/infer/csv, GET /healthz (fleet
// view), GET /metrics, GET /debug/traces, GET /debug/flight (slowest and
// errored recent requests), and (with Config.EnablePprof) /debug/pprof/.
// Requests get an X-Request-Id and one access-log record, like the
// daemon.
func (g *Gateway) Handler() http.Handler {
	return g.front.Handler()
}

// infer is the gateway's serve.InferFunc: admit the batch through the
// gate, scatter it by ring ownership under the gateway's Timeout,
// gather, and reassemble in request order. Its flight phases are route
// (hashing and grouping by ring owner), dispatch, hedge and reassemble;
// its notes are the routing decisions that shaped the answer.
//
//shvet:hotpath the gateway's answer to every infer request
func (g *Gateway) infer(ctx context.Context, cols []data.Column, start time.Time, phases []obs.Phase) (ans serve.Answer, err error) {
	var routeDur, dispatchDur, hedgeDur, reassembleDur time.Duration
	defer func() {
		ans.Phases = append(phases,
			obs.Phase{Name: "route", DurationNS: routeDur.Nanoseconds()},
			obs.Phase{Name: "dispatch", DurationNS: dispatchDur.Nanoseconds()},
			obs.Phase{Name: "hedge", DurationNS: hedgeDur.Nanoseconds()},
			obs.Phase{Name: "reassemble", DurationNS: reassembleDur.Nanoseconds()},
		)
	}()
	if err := g.gate.TryReserve(len(cols)); err != nil {
		return ans, err
	}
	defer g.gate.Release(len(cols))
	g.met.columns.Add(int64(len(cols)))
	g.met.batchSize.Observe(float64(len(cols)))
	if g.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.Timeout)
		defer cancel()
	}

	rtStart := time.Now()
	groups := g.shardGroups(cols)
	dStart := time.Now()
	routeDur = dStart.Sub(rtStart)
	g.met.route.Observe(routeDur.Seconds())
	results := g.scatter(ctx, groups)
	dispatchDur = time.Since(dStart)
	g.met.dispatchDur.Observe(dispatchDur.Seconds())
	for i := range results {
		hedgeDur += results[i].hedgeDur
	}
	if err := ctx.Err(); err != nil {
		return ans, err
	}

	rStart := time.Now()
	notes := make([]string, 0, len(groups))
	resp := BatchResponse{
		Gateway:       "sortinghatgw",
		ModelVersions: make(map[string]int, 2),
		Predictions:   make([]serve.InferPrediction, len(cols)),
		Shards:        len(groups),
	}
	for gi, res := range results {
		gr := &groups[gi]
		notes = append(notes, routeNote(g, gr, &results[gi]))
		if res.replica >= 0 && res.replica != gr.owner {
			resp.ReroutedColumns += len(gr.idxs)
			g.met.rerouted.Add(int64(len(gr.idxs)))
		}
		resp.HedgedRequests += res.hedged
		resp.CacheHits += res.cacheHit
		if resp.Model == "" && res.replica >= 0 {
			resp.Model = res.model
		}
		resp.ModelVersions[res.version] += len(gr.idxs)
		for j, i := range gr.idxs {
			resp.Predictions[i] = res.preds[j]
			if res.preds[j].Degraded {
				resp.DegradedColumns++
			}
		}
	}
	if resp.Model == "" {
		resp.Model = "rules" // every group fell back locally
	}
	g.met.degraded.Add(int64(resp.DegradedColumns))
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	reassembleDur = time.Since(rStart)
	g.met.reassembleDur.Observe(reassembleDur.Seconds())
	ans.Body, ans.Notes = resp, notes
	return ans, nil
}

// routeNote renders one group's routing decision for the flight
// recorder: owner, column count, who actually answered, and whether
// hedging or the local fallback was involved.
func routeNote(g *Gateway, gr *group, res *groupResult) string {
	note := "shard " + g.replicas[gr.owner].label + ": " + strconv.Itoa(len(gr.cols)) + " cols -> "
	switch {
	case res.replica >= 0:
		note += g.replicas[res.replica].label
	default:
		note += "rulefallback"
	}
	if res.hedged > 0 {
		note += " (hedged x" + strconv.Itoa(res.hedged) + ")"
	}
	if res.attempts > 1 {
		note += " (attempts " + strconv.Itoa(res.attempts) + ")"
	}
	if res.denied > 0 {
		note += " (budget-denied x" + strconv.Itoa(res.denied) + ")"
	}
	return note
}

// health is the gateway's GET /healthz body, the fleet view:
// per-replica probe state, breaker state, and ring ownership.
func (g *Gateway) health() any {
	status := "degraded"
	if g.healthyCount() > 0 {
		status = "ok"
	}
	return FleetHealth{
		Status:        status,
		Replicas:      g.replicaStatuses(),
		UptimeSeconds: time.Since(g.start).Seconds(),
	}
}
