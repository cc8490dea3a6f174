package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"sortinghat/ftype"
	"sortinghat/internal/data"
	"sortinghat/internal/featurize"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience/rulefallback"
	"sortinghat/internal/serve"
)

// group is the unit of scatter: the columns of one batch owned by one
// ring replica, with their original batch positions for reassembly.
type group struct {
	owner int
	idxs  []int // original positions in the request batch
	cols  []data.Column
}

// groupResult is one dispatched group's outcome, written into a slot of
// a per-batch slice (no map iteration anywhere on the response path, so
// reassembly order is deterministic by construction).
type groupResult struct {
	preds    []serve.InferPrediction // aligned with group.cols
	replica  int                     // who answered; -1 for the local fallback
	model    string
	version  string
	cacheHit int
	hedged   int           // extra speculative requests fired
	attempts int           // shard attempts resolved
	denied   int           // speculative attempts denied by the retry budget
	canceled bool          // the request ended before this group resolved
	hedgeDur time.Duration // first hedge fire → group resolution (0 if never hedged)
}

// shardGroups splits a batch into per-owner groups, in ring (replica
// index) order. Columns keep their batch positions in idxs.
func (g *Gateway) shardGroups(cols []data.Column) []group {
	byOwner := make([][]int, len(g.replicas))
	for i := range cols {
		owner := g.ring.Owner(ringKey(&cols[i]))
		byOwner[owner] = append(byOwner[owner], i)
	}
	groups := make([]group, 0, len(g.replicas))
	for owner, idxs := range byOwner {
		if len(idxs) == 0 {
			continue
		}
		//shvet:ignore alloc-in-loop each group's column slice is the scatter payload itself, one per shard, and outlives this loop
		gr := group{owner: owner, idxs: idxs, cols: make([]data.Column, len(idxs))}
		for j, i := range idxs {
			gr.cols[j] = cols[i]
		}
		groups = append(groups, gr)
	}
	return groups
}

// scatter dispatches every group concurrently and waits for all of
// them. Results are slot-indexed, never channel-ordered, so assembly is
// deterministic.
func (g *Gateway) scatter(ctx context.Context, groups []group) []groupResult {
	results := make([]groupResult, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.dispatchGroup(ctx, &groups[i])
		}(i)
	}
	wg.Wait()
	return results
}

// shardAttempt is one forwarded sub-request's outcome. canceled marks
// attempts that died because the group was canceled (a winner already
// answered, or the client gave up) or the budget was spent before the
// leg fired — those are not evidence against the replica and must not
// feed its breaker. status and retryAfter carry the replica's HTTP
// answer for non-200s (plain ints, not typed errors, so the hot path
// classifies overloads without boxing).
type shardAttempt struct {
	replica    int
	resp       *serve.InferResponse
	err        error
	canceled   bool
	status     int           // HTTP status of a non-200 answer; 0 otherwise
	retryAfter time.Duration // the replica's Retry-After hint, if any
}

// dispatchGroup forwards one group through its candidate list with a
// merged hedge/failover loop: the first candidate fires immediately, the
// hedge timer speculatively fires the next candidate if no answer has
// arrived, and any failure fires the next candidate at once. The first
// success cancels the stragglers and wins. When every candidate is
// exhausted — all breakers open, or every attempt failed — the group is
// answered locally by the rule fallback so the batch still completes.
// Hedged groups additionally record how long resolution took past the
// first hedge fire (the hedge-phase latency).
//
//shvet:hotpath per-shard scatter body; runs once per group of every gateway batch
func (g *Gateway) dispatchGroup(ctx context.Context, gr *group) groupResult {
	ctx, span := obs.StartSpan(ctx, "shard")
	defer span.End()
	span.SetAttr("owner", g.replicas[gr.owner].label)
	span.SetAttr("columns", strconv.Itoa(len(gr.cols)))

	gctx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := g.candidates(gr.owner)
	attempts := make(chan shardAttempt, len(order))
	inflight, next := 0, 0
	res := groupResult{replica: -1}
	launch := func(speculative bool) bool {
		// Speculative legs — hedges and failover retries — draw from the
		// fleet-wide retry budget before touching a candidate, so a
		// brownout cannot amplify load past the budget's bound. Denied
		// legs fall through: the in-flight attempt (or the rule fallback)
		// answers instead.
		if speculative && !g.budget.TryWithdraw() {
			res.denied++
			return false
		}
		for next < len(order) {
			r := order[next]
			next++
			rep := g.replicas[r]
			if !rep.breaker.Allow() {
				continue
			}
			if !rep.backoff.Ready() {
				continue
			}
			if !rep.limiter.Acquire() {
				continue
			}
			inflight++
			go g.forward(gctx, r, gr.cols, attempts)
			return true
		}
		return false
	}

	var hedgeFired time.Time
	settleHedge := func() {
		if !hedgeFired.IsZero() {
			res.hedgeDur = time.Since(hedgeFired)
			g.met.hedgeDur.Observe(res.hedgeDur.Seconds())
		}
	}
	if launch(false) {
		hedge := hedgeTimer(g.cfg.Hedge)
		defer hedge.Stop()
		for inflight > 0 {
			select {
			case a := <-attempts:
				inflight--
				res.attempts++
				if a.err == nil {
					rep := g.replicas[a.replica]
					rep.breaker.Success()
					rep.limiter.Success()
					rep.backoff.Reset()
					g.budget.Deposit()
					res.preds = a.resp.Predictions
					res.replica = a.replica
					res.model = a.resp.Model
					res.version = a.resp.ModelVersion
					res.cacheHit = a.resp.CacheHits
					span.SetAttr("replica", rep.label)
					if res.hedged > 0 {
						span.SetAttr("hedged", strconv.Itoa(res.hedged))
					}
					settleHedge()
					return res
				}
				if !a.canceled {
					rep := g.replicas[a.replica]
					rep.breaker.Failure()
					rep.errors.Add(1)
					g.met.shardErrors.Add(1)
					// An overloaded answer adapts the gateway's pressure on
					// that replica: cut its concurrency limit, and on an
					// explicit shed (429/503) also arm its backoff with the
					// Retry-After hint it sent.
					switch a.status {
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						rep.limiter.Overload()
						rep.backoff.Arm(a.retryAfter)
						g.met.backoffArmed.Add(1)
					case http.StatusGatewayTimeout:
						rep.limiter.Overload()
					}
					//shvet:ignore string-churn failure-path annotation only; steady-state requests never reach this arm
					span.SetAttr("error@"+rep.label, a.err.Error())
				}
				launch(true) // immediate failover; inflight hedges may still win
			case <-hedge.C:
				if launch(true) {
					res.hedged++
					g.met.hedges.Add(1)
					if hedgeFired.IsZero() {
						hedgeFired = time.Now()
					}
				}
			case <-gctx.Done():
				// The client or deadline gave up; stragglers resolve into
				// the buffered channel and are dropped.
				span.SetAttr("canceled", "true")
				res.canceled = true
				settleHedge()
				return res
			}
		}
	}
	settleHedge()

	// Fleet exhausted: answer locally from the paper's rule baseline,
	// exactly like a lone daemon with its breaker open.
	span.SetAttr("fallback", "rules")
	g.met.fallbackColumns.Add(int64(len(gr.cols)))
	res.preds = make([]serve.InferPrediction, len(gr.cols))
	for i := range gr.cols {
		res.preds[i] = localFallback(&gr.cols[i])
	}
	res.model = "rules"
	res.version = "fallback"
	return res
}

// hedgeTimer arms the hedge delay; a non-positive delay disables
// hedging (the timer never fires).
func hedgeTimer(d time.Duration) *time.Timer {
	if d <= 0 {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	}
	return time.NewTimer(d)
}

// localFallback answers one column from the rule-based baseline, tagged
// degraded — the gateway's last resort when no replica is reachable.
func localFallback(col *data.Column) serve.InferPrediction {
	base := featurize.ExtractFirstN(col, DefaultFallbackSample)
	typ, probs := rulefallback.Classify(&base)
	probsByClass := make(map[string]float64, len(probs))
	for i, p := range probs {
		probsByClass[ftype.FeatureType(i).String()] = p
	}
	confidence := 0.0
	if i := typ.Index(); i >= 0 && i < len(probs) {
		confidence = probs[i]
	}
	return serve.InferPrediction{
		Name:       col.Name,
		Type:       typ.String(),
		Confidence: confidence,
		Probs:      probsByClass,
		Degraded:   true,
		Error:      "no replica reachable; answered by gateway rule fallback",
	}
}

// forward sends one group to one replica as a POST /v1/infer sub-request
// and reports the outcome. Panics (possible via injected faults) are
// converted to errors so one bad attempt can't take the gateway down.
// The caller acquired a slot on the replica's concurrency limiter;
// forward owns releasing it.
func (g *Gateway) forward(ctx context.Context, ri int, cols []data.Column, out chan<- shardAttempt) {
	r := g.replicas[ri]
	defer r.limiter.Release()
	r.requests.Add(1)
	g.met.shardRequests.Add(1)
	fctx, fSpan := obs.StartSpan(ctx, "forward")
	fSpan.SetAttr("replica", r.label)
	start := time.Now()
	var meta shardMeta
	resp, err := func() (resp *serve.InferResponse, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("forward to %s panicked: %v", r.label, p)
			}
		}()
		if err := g.inject("forward@" + r.label); err != nil {
			return nil, err
		}
		resp, meta, err = g.postInfer(fctx, r.addr, cols)
		return resp, err
	}()
	if err != nil {
		fSpan.SetAttr("error", err.Error())
	}
	fSpan.End()
	g.met.shardLatency.ObserveSince(start)
	out <- shardAttempt{
		replica:    ri,
		resp:       resp,
		err:        err,
		canceled:   err != nil && (ctx.Err() != nil || err == errBudgetSpent),
		status:     meta.status,
		retryAfter: meta.retryAfter,
	}
}

// decodeJSONBody decodes a bounded JSON response body.
func decodeJSONBody(resp *http.Response, v any) error {
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(v)
}

// shardMeta carries the HTTP-level facts of a failed sub-request the
// dispatch loop classifies on: the status code and the replica's
// Retry-After hint. Plain value fields, not a typed error, so the
// hot-path classification never boxes.
type shardMeta struct {
	status     int
	retryAfter time.Duration
}

// errBudgetSpent marks a leg that was never sent because the request's
// remaining time budget (minus net slack) was already gone. Not
// evidence against the replica.
var errBudgetSpent = fmt.Errorf("gateway: request budget spent before forwarding")

// postInfer performs the sub-request: the group's columns as a standard
// /v1/infer batch against one replica, with the remaining request
// budget propagated via X-Deadline-Ms so the replica never works on an
// answer the gateway has stopped waiting for.
func (g *Gateway) postInfer(ctx context.Context, addr string, cols []data.Column) (*serve.InferResponse, shardMeta, error) {
	req := serve.InferRequest{Columns: make([]serve.InferColumn, len(cols))}
	for i, c := range cols {
		req.Columns[i] = serve.InferColumn{Name: c.Name, Values: c.Values}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, shardMeta{}, fmt.Errorf("encoding shard request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/infer", bytes.NewReader(body))
	if err != nil {
		return nil, shardMeta{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	// Propagate the remaining time budget, minus a network-slack
	// allowance, so the replica clamps its own deadline to the time the
	// gateway will actually wait.
	if g.cfg.NetSlack >= 0 {
		if d, ok := ctx.Deadline(); ok {
			remain := time.Until(d) - g.cfg.NetSlack
			if remain < time.Millisecond {
				return nil, shardMeta{}, errBudgetSpent
			}
			httpReq.Header.Set(serve.DeadlineHeader, strconv.FormatInt(remain.Milliseconds(), 10))
		}
	}
	// Propagate trace identity so the replica's root span joins this
	// trace instead of minting its own, and forward the request id so
	// fleet-wide log lines join on one key.
	if sc := obs.SpanFromContext(ctx).Context(); !sc.IsZero() {
		httpReq.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		httpReq.Header.Set("X-Request-Id", rid)
	}
	httpResp, err := g.cfg.Client.Do(httpReq)
	if err != nil {
		return nil, shardMeta{}, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		meta := shardMeta{status: httpResp.StatusCode}
		if s, err := strconv.ParseInt(httpResp.Header.Get("Retry-After"), 10, 64); err == nil && s > 0 {
			meta.retryAfter = time.Duration(s) * time.Second
		}
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return nil, meta, fmt.Errorf("replica answered %d: %s", httpResp.StatusCode, bytes.TrimSpace(msg))
	}
	// A replica's answer is untrusted input: its size is bounded by the
	// shard it answers, and every prediction must echo its column's name
	// and carry a known class. A violation is a replica failure like any
	// other — breaker evidence and a failover — never a misattribution.
	limit := answerLimit(cols)
	ansBody := &io.LimitedReader{R: httpResp.Body, N: limit}
	var resp serve.InferResponse
	if err := json.NewDecoder(ansBody).Decode(&resp); err != nil {
		if ansBody.N == 0 {
			return nil, shardMeta{}, fmt.Errorf("shard response exceeds %d bytes", limit)
		}
		return nil, shardMeta{}, fmt.Errorf("decoding shard response: %w", err)
	}
	if len(resp.Predictions) != len(cols) {
		return nil, shardMeta{}, fmt.Errorf("replica answered %d predictions for %d columns", len(resp.Predictions), len(cols))
	}
	if i := badAnswer(cols, resp.Predictions); i >= 0 {
		p := &resp.Predictions[i]
		return nil, shardMeta{}, fmt.Errorf("replica answered column %d (%q) as %q with class %q", i, cols[i].Name, p.Name, p.Type)
	}
	return &resp, shardMeta{}, nil
}

// answerLimit bounds a replica's answer to cols: an envelope allowance
// plus, per column, room for its name echoed with worst-case JSON escaping
// and a generous prediction body. An honest answer needs a few hundred
// bytes per column.
func answerLimit(cols []data.Column) int64 {
	n := int64(64 << 10)
	for i := range cols {
		n += 4<<10 + 6*int64(len(cols[i].Name))
	}
	return n
}

// badAnswer returns the index of the first prediction that does not echo
// its column's name or whose type is not a known class, or -1.
func badAnswer(cols []data.Column, preds []serve.InferPrediction) int {
	for i := range preds {
		name := preds[i].Name
		if name != cols[i].Name && name != wireName(cols[i].Name) || !answerClasses[preds[i].Type] {
			return i
		}
	}
	return -1
}

// wireName is a column name as the shard request carries it:
// encoding/json replaces each byte of invalid UTF-8 (a Latin-1 CSV header,
// say) with U+FFFD, so that is the name an honest replica echoes.
func wireName(name string) string {
	if utf8.ValidString(name) {
		return name
	}
	var b strings.Builder
	for i := 0; i < len(name); {
		r, size := utf8.DecodeRuneInString(name[i:])
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(utf8.RuneError)
		} else {
			b.WriteString(name[i : i+size])
		}
		i += size
	}
	return b.String()
}

// answerClasses are the class labels a replica may answer with: every
// type a model can predict (the base classes and the extension classes).
var answerClasses = func() map[string]bool {
	m := make(map[string]bool)
	for t := ftype.Numeric; t <= ftype.State; t++ {
		m[t.String()] = true
	}
	return m
}()
