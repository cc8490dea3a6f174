package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"sortinghat/internal/core"
	"sortinghat/internal/data"
	"sortinghat/internal/gateway"
	"sortinghat/internal/serve"
)

// replicaCount is the fleet's size: two sortinghatd replicas behind one
// gateway, the smallest fleet in which the gateway scatters.
const replicaCount = 2

// replicaPortBase is the first loopback port tried for the replicas. The
// gateway's ring hashes replica addresses, so a fixed address pair gives
// every run the same shard map; a random port would move the ownership
// split, and with it the load balance, from run to run.
const replicaPortBase = 41731

// fleet is one in-process deployment on real loopback listeners: the
// replicas and the gateway, each on its daemon's default Config with
// only addresses set.
type fleet struct {
	replicas []*serve.Server
	addrs    []string      // replica base URLs, in ring order
	servers  []*httpServer // replica listeners, like replicas
	gw       *gateway.Gateway
	gwServer *httpServer
	url      string // gateway base URL
}

// httpServer is one listener with its serving goroutine.
type httpServer struct {
	srv  *http.Server
	done chan struct{}
}

func serveOn(ln net.Listener, h http.Handler) *httpServer {
	s := &httpServer{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed after shutdown
	}()
	return s
}

func (s *httpServer) shutdown(ctx context.Context) {
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close() // shutdown timed out; drop the remaining connections
	}
	<-s.done
}

// listenReplicas binds one loopback listener per replica, trying fixed
// port blocks first and falling back to kernel-chosen ports.
func listenReplicas() ([]net.Listener, error) {
	for block := 0; block < 16; block++ {
		var lns []net.Listener
		for i := 0; i < replicaCount; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(replicaPortBase+block*replicaCount+i))
			if err != nil {
				break
			}
			lns = append(lns, ln)
		}
		if len(lns) == replicaCount {
			return lns, nil
		}
		for _, ln := range lns {
			_ = ln.Close() // never served; nothing to flush
		}
	}
	var lns []net.Listener
	for i := 0; i < replicaCount; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				_ = l.Close() // never served; nothing to flush
			}
			return nil, fmt.Errorf("listening for replica %d: %w", i, err)
		}
		lns = append(lns, ln)
	}
	return lns, nil
}

// bootFleet starts the replicas and the gateway over pipe. With a
// recorder, the benchmark's span wrappers go around both tiers' handlers
// and the gateway's forwarding transport; without one, nothing of the
// benchmark sits in the request path.
func bootFleet(pipe *core.Pipeline, rec *recorder) (*fleet, error) {
	lns, err := listenReplicas()
	if err != nil {
		return nil, err
	}
	f := &fleet{}
	for _, ln := range lns {
		s := serve.New(pipe, serve.Config{})
		addr := "http://" + ln.Addr().String()
		var h http.Handler = s.Handler()
		if rec != nil {
			h = rec.handler(spanServe, ln.Addr().String(), h)
		}
		f.replicas = append(f.replicas, s)
		f.addrs = append(f.addrs, addr)
		f.servers = append(f.servers, serveOn(ln, h))
	}
	cfg := gateway.Config{Replicas: f.addrs}
	if rec != nil {
		cfg.Client = &http.Client{Transport: rec.transport(http.DefaultTransport)}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("listening for the gateway: %w", err)
	}
	var h http.Handler = gw.Handler()
	if rec != nil {
		h = rec.handler(spanGateway, "", h)
	}
	f.url = "http://" + gln.Addr().String()
	f.gwServer = serveOn(gln, h)
	return f, nil
}

// waitHealthy polls the gateway's /healthz until it reports every
// replica healthy.
func (f *fleet) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for {
		ok, err := f.healthy(ctx, client)
		if ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet not healthy: %v (last probe: %v)", ctx.Err(), err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (f *fleet) healthy(ctx context.Context, client *http.Client) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var h gateway.FleetHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return false, err
	}
	if h.Status != "ok" || len(h.Replicas) != replicaCount {
		return false, fmt.Errorf("status %q with %d replicas", h.Status, len(h.Replicas))
	}
	for _, r := range h.Replicas {
		if r.Health != "healthy" {
			return false, fmt.Errorf("replica %s is %s", r.Replica, r.Health)
		}
	}
	return true, nil
}

// close stops the gateway, then the replicas, and waits for every
// serving goroutine and worker to exit.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Stop the gateway first so no request is still forwarding when the
	// replicas go.
	if f.gwServer != nil {
		f.gwServer.shutdown(ctx)
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.servers {
		s.shutdown(ctx)
	}
	for _, s := range f.replicas {
		s.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// setUp trains the model and boots a fleet over it, returning the fleet
// once the gateway reports every replica healthy and the time all of
// that took.
func setUp(ctx context.Context, train []data.LabeledColumn, opts core.Options, rec *recorder) (*fleet, *core.Pipeline, time.Duration, error) {
	start := time.Now()
	pipe, err := core.TrainCtx(ctx, train, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("training: %w", err)
	}
	f, err := bootFleet(pipe, rec)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("booting the fleet: %w", err)
	}
	if err := f.waitHealthy(ctx); err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return f, pipe, time.Since(start), nil
}
