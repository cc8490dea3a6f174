package obs

import (
	"sort"
	"sync"
)

// DefaultFlightRing is the default capacity of each flight-recorder ring
// (slowest and errored are separate rings of this size).
const DefaultFlightRing = 32

// Phase is one named stage of a request with its measured duration —
// queue/cache/featurize/predict on a replica, dispatch/hedge/reassemble
// on the gateway. Phases are a slice, not a map, so records render
// deterministically.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// FlightRecord is one request worth keeping: identity to join it with
// traces and logs, total and per-phase timing, and the routing decisions
// (shard assignment, hedges, failovers) that explain where the time went.
type FlightRecord struct {
	TraceID    string   `json:"trace_id,omitempty"`
	RequestID  string   `json:"request_id,omitempty"`
	Path       string   `json:"path,omitempty"`
	Status     int      `json:"status,omitempty"`
	DurationNS int64    `json:"duration_ns"`
	Columns    int      `json:"columns,omitempty"`
	Phases     []Phase  `json:"phases,omitempty"`
	Notes      []string `json:"notes,omitempty"` // routing / hedge / failover decisions
	Err        string   `json:"error,omitempty"`
}

// FlightRecorder keeps the requests worth explaining after the fact: a
// bounded ring of the slowest requests seen (by total duration) and a
// separate ring of the most recent errored requests. Recording is cheap
// — a short critical section, no allocation unless the record is kept —
// and happens after the response is written, off the latency path. A nil
// *FlightRecorder is a valid disabled recorder.
type FlightRecorder struct {
	mu      sync.Mutex
	slowest []FlightRecord // sorted slowest-first, at most cap
	errored []FlightRecord // ring, next points at the oldest slot
	next    int
	size    int
	capac   int
}

// NewFlightRecorder returns a recorder keeping up to capacity slowest and
// capacity errored requests (DefaultFlightRing when capacity is not
// positive).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightRing
	}
	return &FlightRecorder{
		slowest: make([]FlightRecord, 0, capacity),
		errored: make([]FlightRecord, capacity),
		capac:   capacity,
	}
}

// Record offers one finished request to the recorder. Errored requests
// (non-empty Err or status >= 500) always enter the errored ring,
// evicting the oldest; any request slow enough to beat the current
// slowest set enters it, evicting the fastest of the kept.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if rec.Err != "" || rec.Status >= 500 {
		f.errored[f.next] = rec
		f.next = (f.next + 1) % f.capac
		if f.size < f.capac {
			f.size++
		}
	}
	if len(f.slowest) < f.capac {
		f.slowest = append(f.slowest, rec)
		f.sortSlowest()
		return
	}
	if rec.DurationNS > f.slowest[len(f.slowest)-1].DurationNS {
		f.slowest[len(f.slowest)-1] = rec
		f.sortSlowest()
	}
}

// sortSlowest keeps the slowest slice ordered slowest-first. Stable so
// equal-duration records keep arrival order.
func (f *FlightRecorder) sortSlowest() {
	sort.SliceStable(f.slowest, func(i, j int) bool {
		return f.slowest[i].DurationNS > f.slowest[j].DurationNS
	})
}

// FlightSnapshot is the serializable state of a recorder, what
// GET /debug/flight returns.
type FlightSnapshot struct {
	Slowest []FlightRecord `json:"slowest"` // slowest first
	Errored []FlightRecord `json:"errored"` // most recent first
}

// Snapshot copies out the current state: slowest requests slowest-first,
// errored requests most-recent-first.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{Slowest: []FlightRecord{}, Errored: []FlightRecord{}}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	snap := FlightSnapshot{
		Slowest: append([]FlightRecord(nil), f.slowest...),
		Errored: make([]FlightRecord, 0, f.size),
	}
	for i := 1; i <= f.size; i++ {
		snap.Errored = append(snap.Errored, f.errored[(f.next-i+f.capac)%f.capac])
	}
	if snap.Slowest == nil {
		snap.Slowest = []FlightRecord{}
	}
	return snap
}
