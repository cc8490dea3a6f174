// Package gateway is the scale-out tier in front of a fleet of
// sortinghatd replicas: one process (cmd/sortinghatgw) that accepts the
// same /v1/infer and /v1/infer/csv batches as a single daemon, shards
// each batch across the fleet, and reassembles the answers in request
// order.
//
// # Front door
//
// The gateway is a backend that forwards. Its HTTP surface is the
// daemon's own front door, serve.Front: the same middleware, ingress
// limits, batch and X-Deadline-Ms checks, error-to-status mapping,
// flight record and debug endpoints. What the gateway supplies is its
// infer function (admit through its gate, apply its Timeout, scatter,
// gather, reassemble), its metric handles, and its fleet /healthz body.
//
// # Routing
//
// Every column is routed by content, not by connection: the gateway
// computes the same 128-bit column content hash the daemon uses for its
// prediction cache key (serve.ColumnHash), takes the first 8 bytes as a
// ring key, and looks the owner up on a consistent-hash ring of replica
// addresses (Ring). Identical columns therefore always land on the same
// replica, so each replica's prediction cache holds a disjoint shard of
// the column space and fleet-wide cache capacity scales with replica
// count instead of duplicating entries everywhere.
//
// # Health and failover
//
// A background prober polls every replica's /healthz. Replicas reporting
// "degraded" (their prediction breaker is open and they answer from the
// rule fallback) are deprioritized; replicas that fail the probe are
// routed around entirely. Each replica also has a local circuit breaker
// fed by forwarding outcomes, so a replica that probes healthy but fails
// requests is tripped out of rotation between probes. Candidate order
// for a column group is: the ring owner first, then the remaining
// replicas in ring order, stably bucketed healthy < degraded < down.
//
// Forwarding a group works through that candidate list with a merged
// hedge/failover loop: the first candidate is fired immediately, a hedge
// fires the next candidate if no answer arrives within the hedge delay,
// and an error fires the next candidate at once. The first success wins
// and cancels the rest. If every candidate is down or fails, the gateway
// answers the group locally from the paper's rule-based baseline
// (resilience/rulefallback), tagged degraded — the fleet's last resort
// mirrors the daemon's.
//
// # Model versions
//
// Replicas may serve different model versions mid-rollout (see the
// daemon's POST /admin/reload). The gateway surfaces this instead of
// hiding it: the batch response counts columns per model version, so a
// canary's share of traffic is visible per response, and /healthz lists
// every replica's health, breaker state, and ring ownership share.
package gateway
