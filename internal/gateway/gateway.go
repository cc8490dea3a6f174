package gateway

import (
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"sortinghat/internal/data"
	"sortinghat/internal/obs"
	"sortinghat/internal/resilience"
	"sortinghat/internal/serve"
)

// Gateway defaults. Batch and cell limits default to the daemon's
// (serve.DefaultMaxBatch, serve.DefaultMaxCellBytes) so a batch the
// gateway accepts is one every replica accepts.
const (
	DefaultHedge         = 150 * time.Millisecond
	DefaultProbeInterval = 2 * time.Second
	DefaultTimeout       = serve.DefaultTimeout
	// DefaultFallbackSample is how many distinct values the local rule
	// fallback inspects per column when the whole fleet is unreachable —
	// the daemon's featurization sample size.
	DefaultFallbackSample = 1000
	// DefaultNetSlack is subtracted from the remaining request budget
	// before it is propagated to a replica via X-Deadline-Ms, reserving
	// time for the network hop and response handling.
	DefaultNetSlack = 10 * time.Millisecond
)

// Injector is the fault-injection hook the gateway calls at its named
// sites ("forward@r0", "probe@r1", ...). Production configs leave
// Config.Faults nil; tests pass a *faultinject.Injector.
type Injector interface {
	Inject(site string) error
}

// Config tunes a Gateway. Replicas is required; every other field has a
// working default.
type Config struct {
	// Replicas are the sortinghatd base URLs to shard across, e.g.
	// "http://10.0.0.1:8080". Order and duplicates don't matter: the ring
	// sorts and dedupes, and replica labels r0, r1, ... follow the sorted
	// order.
	Replicas []string
	// VNodes is the virtual nodes per replica on the ring (0 =
	// DefaultVNodes).
	VNodes int
	// Hedge is how long a shard request may go unanswered before the next
	// candidate replica is speculatively fired (0 = DefaultHedge,
	// negative disables hedging).
	Hedge time.Duration
	// Timeout bounds each client request end to end (0 = DefaultTimeout,
	// negative disables).
	Timeout time.Duration
	// ProbeInterval is the /healthz polling period (0 =
	// DefaultProbeInterval).
	ProbeInterval time.Duration
	// MaxBatch caps columns per request (0 = serve.DefaultMaxBatch).
	MaxBatch int
	// MaxCellBytes caps CSV cell size (0 = serve.DefaultMaxCellBytes).
	MaxCellBytes int
	// QueueDepth is the admission gate high-water mark in columns (0 =
	// 2*MaxBatch).
	QueueDepth int
	// Breaker tunes the per-replica forwarding breakers.
	Breaker resilience.BreakerConfig
	// NetSlack is the network allowance subtracted from the remaining
	// request budget before propagating it to replicas (0 =
	// DefaultNetSlack, negative disables deadline propagation).
	NetSlack time.Duration
	// RetryBudget bounds speculative work — hedges and failover retries —
	// fleet-wide. The zero value takes the resilience package defaults
	// (~10% of successful traffic plus a small floor).
	RetryBudget resilience.RetryBudgetConfig
	// ReplicaLimit tunes the adaptive (AIMD) per-replica concurrency
	// limiters. The zero value takes the resilience package defaults.
	ReplicaLimit resilience.AIMDConfig
	// Backoff tunes the per-replica retry backoff armed by shedding
	// (429/503) answers. The zero value takes the resilience package
	// defaults; replica i's jitter RNG is seeded Backoff.Seed + i.
	Backoff resilience.BackoffConfig
	// RetryAfterMax caps the Retry-After hint (seconds) on 429 and
	// deadline 504 responses (0 = serve.DefaultRetryAfterMax).
	RetryAfterMax int
	// TraceRing is the recent-traces ring capacity (0 =
	// obs.DefaultTraceRing).
	TraceRing int
	// TraceSink, when non-nil, receives every finished gateway trace as
	// one JSON line (JSONL) carrying the full trace/span identity — the
	// stream cmd/tracecat joins with the replicas' sinks. See the
	// -trace-out flag of cmd/sortinghatgw.
	TraceSink io.Writer
	// FlightRing caps each ring of the flight recorder behind
	// GET /debug/flight (0 = obs.DefaultFlightRing).
	FlightRing int
	// Logger, when set, receives structured access and fleet-event logs.
	Logger *slog.Logger
	// Faults, when set, injects faults at the gateway's sites. Testing
	// only.
	Faults Injector
	// Client overrides the forwarding HTTP client (nil = a fresh client;
	// request deadlines come from Timeout via context either way).
	Client *http.Client
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// normalized fills in the documented defaults.
func (c Config) normalized() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Hedge == 0 {
		c.Hedge = DefaultHedge
	}
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = serve.DefaultMaxBatch
	}
	if c.MaxCellBytes <= 0 {
		c.MaxCellBytes = serve.DefaultMaxCellBytes
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxBatch
	}
	if c.NetSlack == 0 {
		c.NetSlack = DefaultNetSlack
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = serve.DefaultRetryAfterMax
	}
	if c.TraceRing <= 0 {
		c.TraceRing = obs.DefaultTraceRing
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// replica is the gateway's per-replica state: address, stable label,
// probe-observed health, and the local forwarding breaker.
type replica struct {
	addr    string
	label   string // "r0", "r1", ... in ring (sorted-address) order
	breaker *resilience.Breaker
	limiter *resilience.AIMDLimiter // adaptive concurrency cap on forwards
	backoff *resilience.Backoff     // armed by shedding (429/503) answers
	health  atomic.Int32            // Health, written by the prober

	requests atomic.Int64 // shard requests sent to this replica
	errors   atomic.Int64 // shard requests that failed
}

// Health is a replica's probe-observed state.
type Health int32

// The three probe states, ordered by routing preference.
const (
	// Healthy replicas answered their last probe with status "ok".
	Healthy Health = iota
	// Degraded replicas answered with status "degraded": alive, but
	// serving from their rule fallback. Deprioritized, not avoided.
	Degraded
	// Down replicas failed their last probe and are routed around.
	Down
)

// String names the state for /healthz payloads and logs.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// Gateway shards inference batches across a fleet of sortinghatd
// replicas. Construct with New, expose Handler over HTTP, and Close to
// stop the prober.
type Gateway struct {
	cfg      Config
	ring     *Ring
	replicas []*replica
	owned    []float64 // ring ownership share, indexed like replicas
	gate     *resilience.Gate
	budget   *resilience.RetryBudget // fleet-wide bound on speculative work
	logger   *slog.Logger
	faults   Injector
	met      *metrics
	front    *serve.Front
	start    time.Time

	probeStop chan struct{}
	probeDone chan struct{}
}

// New builds a Gateway over cfg.Replicas and starts its health prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.normalized()
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:       cfg,
		ring:      ring,
		owned:     ring.Ownership(),
		gate:      resilience.NewGate(cfg.QueueDepth),
		budget:    resilience.NewRetryBudget(cfg.RetryBudget),
		logger:    cfg.Logger,
		faults:    cfg.Faults,
		start:     time.Now(),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	for i, addr := range ring.Replicas() {
		bcfg := cfg.Backoff
		// Offset the seed per replica so peers' jitter decorrelates while
		// the whole fleet's schedule stays reproducible from one seed.
		bcfg.Seed += int64(i)
		r := &replica{
			addr:    addr,
			label:   "r" + strconv.Itoa(i),
			breaker: resilience.NewBreaker(cfg.Breaker),
			limiter: resilience.NewAIMDLimiter(cfg.ReplicaLimit),
			backoff: resilience.NewBackoff(bcfg),
		}
		// Until the first probe lands, optimism: route normally rather
		// than stalling a fresh gateway behind one probe interval.
		r.health.Store(int32(Healthy))
		g.replicas = append(g.replicas, r)
	}
	g.met = newMetrics(g)
	g.front = &serve.Front{
		Span:          "gateway",
		IDPrefix:      "gw-",
		MaxBatch:      cfg.MaxBatch,
		MaxCellBytes:  cfg.MaxCellBytes,
		Gate:          g.gate,
		RetryAfterMax: cfg.RetryAfterMax,
		Met:           &g.met.FrontMetrics,
		Tracer:        obs.NewTracer(cfg.TraceRing),
		Flight:        obs.NewFlightRecorder(cfg.FlightRing),
		Logger:        cfg.Logger,
		EnablePprof:   cfg.EnablePprof,
		Infer:         g.infer,
		Health:        g.health,
	}
	g.front.Tracer.SetSink(cfg.TraceSink)
	go g.probeLoop()
	return g, nil
}

// Close stops the health prober. In-flight requests are the HTTP
// server's to drain; the gateway holds no other background state.
func (g *Gateway) Close() {
	close(g.probeStop)
	<-g.probeDone
}

// ringKey is the routing key for a column: the first 8 bytes of the
// daemon's 128-bit content hash. Using the cache-key hash means the
// gateway's shard map and each replica's cache identity agree by
// construction — a column always revisits the replica that cached it.
func ringKey(col *data.Column) uint64 {
	sum := serve.ColumnHash(col)
	return binary.BigEndian.Uint64(sum[:8])
}

// healthClass buckets a replica for candidate ordering: 0 route
// normally, 1 deprioritize, 2 route around. The probe result, the
// local forwarding breaker, the backoff window, and the adaptive
// concurrency limiter all contribute — a replica that probes healthy
// but is shedding, backing off, or at its concurrency limit is
// deprioritized so failovers prefer replicas with headroom.
func (g *Gateway) healthClass(i int) int {
	r := g.replicas[i]
	switch {
	case Health(r.health.Load()) == Down, r.breaker.State() == resilience.Open:
		return 2
	case Health(r.health.Load()) == Degraded, r.breaker.State() == resilience.HalfOpen,
		!r.backoff.Ready(), r.limiter.Saturated():
		return 1
	default:
		return 0
	}
}

// candidates returns the failover order for a group owned by owner:
// replicas in ring order starting at the owner, stably bucketed healthy
// < degraded < down. A healthy owner is always first; a dead owner's
// groups go to the next healthy replica clockwise, and down replicas
// remain last-resort candidates (their breaker half-open probe decides
// whether they are actually tried).
func (g *Gateway) candidates(owner int) []int {
	n := len(g.replicas)
	order := make([]int, 0, n)
	for class := 0; class <= 2; class++ {
		for d := 0; d < n; d++ {
			i := (owner + d) % n
			if g.healthClass(i) == class {
				order = append(order, i)
			}
		}
	}
	return order
}

// inject visits a fault site when an injector is configured.
func (g *Gateway) inject(site string) error {
	if g.faults == nil {
		return nil
	}
	return g.faults.Inject(site)
}

// faultsFired samples the injector's lifetime fire count for /metrics.
func (g *Gateway) faultsFired() int64 {
	f, ok := g.faults.(interface{ Fired() int64 })
	if !ok {
		return 0
	}
	return f.Fired()
}

// healthyCount is the /metrics view of fleet health: replicas currently
// in routing class 0.
func (g *Gateway) healthyCount() int64 {
	var n int64
	for i := range g.replicas {
		if g.healthClass(i) == 0 {
			n++
		}
	}
	return n
}

// probeLoop polls every replica's /healthz each ProbeInterval until
// Close. The first sweep runs immediately so a fresh gateway converges
// on real fleet state within one probe round-trip, not one interval.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	client := &http.Client{Timeout: g.cfg.ProbeInterval}
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		g.probeAll(client)
		select {
		case <-g.probeStop:
			return
		case <-ticker.C:
		}
	}
}

// probeAll sweeps the fleet once, serially: probe timeouts are bounded
// by the client timeout, and fleets are small (a handful of replicas),
// so a sweep always fits one interval.
func (g *Gateway) probeAll(client *http.Client) {
	for _, r := range g.replicas {
		next := g.probeOne(client, r)
		prev := Health(r.health.Swap(int32(next)))
		if next != prev {
			g.met.probeTransitions.Add(1)
			if g.logger != nil {
				g.logger.Info("replica health changed",
					"replica", r.label, "addr", r.addr,
					"from", prev.String(), "to", next.String())
			}
		}
	}
}

// probeOne classifies one replica from its /healthz answer: "ok" is
// Healthy, "degraded" is Degraded, anything else — transport error,
// non-200, unparseable body — is Down.
func (g *Gateway) probeOne(client *http.Client, r *replica) Health {
	if err := g.inject("probe@" + r.label); err != nil {
		g.met.probeFailures.Add(1)
		return Down
	}
	resp, err := client.Get(r.addr + "/healthz")
	if err != nil {
		g.met.probeFailures.Add(1)
		return Down
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		g.met.probeFailures.Add(1)
		return Down
	}
	var h serve.HealthResponse
	if err := decodeJSONBody(resp, &h); err != nil {
		g.met.probeFailures.Add(1)
		return Down
	}
	switch h.Status {
	case "ok":
		return Healthy
	case "degraded":
		return Degraded
	default:
		g.met.probeFailures.Add(1)
		return Down
	}
}

// Replicas describes the fleet for /healthz: one entry per replica in
// ring order.
func (g *Gateway) replicaStatuses() []ReplicaStatus {
	out := make([]ReplicaStatus, len(g.replicas))
	for i, r := range g.replicas {
		out[i] = ReplicaStatus{
			Replica:   r.label,
			Addr:      r.addr,
			Health:    Health(r.health.Load()).String(),
			Breaker:   r.breaker.State().String(),
			Ownership: g.owned[i],
			Requests:  r.requests.Load(),
			Errors:    r.errors.Load(),
		}
	}
	return out
}

// String summarises the topology for startup logs.
func (g *Gateway) String() string {
	return fmt.Sprintf("gateway over %d replicas, %d vnodes each", len(g.replicas), g.cfg.VNodes)
}
