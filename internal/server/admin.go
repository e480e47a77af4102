package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"pgridfile/internal/fault"
	"pgridfile/internal/store"
)

// HTTPAddr returns the metrics endpoint address, or nil if disabled.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// Snapshot returns the server's current statistics.
func (s *Server) Snapshot() Snapshot {
	snap := s.met.snapshot(len(s.sem))
	m := s.st.Manifest()
	snap.Dims = s.st.Grid().Dims()
	snap.Disks = m.Disks
	for _, iv := range s.dom {
		snap.Domain = append(snap.Domain, [2]float64{iv.Lo, iv.Hi})
	}
	snap.Replicas = s.st.Replicas()
	// Storage overhead as the disk files stand: every page they hold,
	// against one copy of each bucket the last checkpoint placed.
	if sizes, err := s.st.DiskSizes(); err == nil {
		var total, unique int64
		for _, n := range sizes {
			total += n
		}
		for _, pl := range m.Buckets {
			unique += int64(pl.Pages)
		}
		snap.DiskBytes = total * int64(m.PageBytes)
		if unique > 0 {
			snap.WriteAmp = float64(total) / float64(unique)
		}
	}
	snap.FaultInjected = s.faults.Total()
	if s.bcache != nil {
		st := s.bcache.Stats()
		snap.Cache = &st
	}
	wc := s.st.WriteCounters()
	snap.Writes = &wc
	return snap
}

// ScrubNow runs one synchronous integrity scrub over the layout, flat out,
// for tests and harnesses that want a deterministic pass.
func (s *Server) ScrubNow(ctx context.Context) (store.ScrubStats, error) {
	return s.scrub(ctx, 0)
}

// scrub runs one pass (see store.Scrub) and folds its counts into the
// scrub_pages / scrub_corrupt / scrub_repaired counters.
func (s *Server) scrub(ctx context.Context, pause time.Duration) (store.ScrubStats, error) {
	st, err := s.st.Scrub(ctx, pause)
	s.met.scrubPages.Add(st.Pages)
	s.met.scrubCorrupt.Add(st.Corrupt)
	s.met.scrubRepaired.Add(st.Repaired)
	return st, err
}

// scrubLoop is the low-priority background scrubber: one full pass per
// ScrubInterval tick, cancelled promptly on shutdown.
func (s *Server) scrubLoop() {
	defer s.scrubWg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-s.done
		cancel()
	}()
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.scrub(ctx, scrubPause)
		}
	}
}

// FaultStatus is the JSON payload of a VerbFaultReply: the registry's seed,
// lifetime injection count, and every armed rule with its counters.
type FaultStatus struct {
	Seed     int64              `json:"seed"`
	Injected int64              `json:"injected_total"`
	Sites    []fault.SiteStatus `json:"sites,omitempty"`
}

// handleFault executes one FAULT admin command: "status" reports the armed
// rules, "clear" disarms them all, and anything else is parsed as a fault
// spec and armed on top of the current rules. Every command answers with
// the post-command status.
func (s *Server) handleFault(cmd string) ([]byte, error) {
	switch cmd {
	case "status":
	case "clear":
		s.faults.Clear()
	default:
		if err := s.faults.SetSpec(cmd); err != nil {
			return nil, err
		}
	}
	return json.Marshal(FaultStatus{
		Seed:     s.faults.Seed(),
		Injected: s.faults.Total(),
		Sites:    s.faults.Status(),
	})
}

// serveAdmin appends the inner reply to a STATS or FAULT request, which
// bypass admission control so operators can observe — and heal — a saturated
// or fault-wedged server.
func (s *Server) serveAdmin(buf []byte, req *Request) ([]byte, error) {
	var verb Verb
	var body []byte
	var err error
	if req.Verb == VerbStats {
		s.met.queries[verbIndex(VerbStats)].Add(1)
		verb = VerbStatsReply
		body, err = json.Marshal(s.Snapshot())
	} else {
		s.met.queries[verbIndex(VerbFault)].Add(1)
		verb = VerbFaultReply
		body, err = s.handleFault(req.FaultCmd)
	}
	if err != nil {
		s.met.errors.Add(1)
		return buf, err
	}
	return append(append(buf, byte(verb)), body...), nil
}

func (s *Server) startHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.Snapshot().writePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(s.met.start).Seconds(),
		})
	})
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.httpLn = ln
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return nil
}

// Close shuts the server down gracefully: stop accepting, let in-flight
// queries finish (up to drainTimeout, then force-close), stop the disk
// goroutines and the HTTP endpoint. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	// Unblock handlers parked in ReadFrame; handlers mid-query keep their
	// write path and finish their current reply.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
		s.acceptWg.Wait()
	}

	if !waitTimeout(&s.connWg, drainTimeout) {
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWg.Wait()
	}
	// Only queries send to the disk queues, and every query runs on a
	// connection handler or one of its tagged workers, all of which connWg
	// has seen return: nothing can send on a closed queue, and no query is
	// left to read its own requests. Each worker drains its queue, reading
	// what no query read, then exits.
	for _, q := range s.sched {
		close(q)
	}
	s.fetchWg.Wait()
	s.scrubWg.Wait()

	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	if s.ownsStore {
		s.st.Close()
	}
	return nil
}

// waitTimeout waits for wg up to d; it reports whether the wait completed.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}
