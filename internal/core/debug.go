package core

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"dmx/internal/obs"
	"dmx/internal/types"
)

// debugServer is the optional HTTP introspection endpoint of an
// environment: live metrics in Prometheus text exposition, the
// completed-trace ring as JSON, and a liveness probe.
type debugServer struct {
	env *Env
	srv *http.Server
	ln  net.Listener
}

// ServeDebug starts the debug HTTP server on addr (e.g. "127.0.0.1:7654";
// ":0" picks a free port) and returns the bound address. Endpoints:
//
//	/metrics      obs.Snapshot rendered in Prometheus text exposition format
//	/traces       completed-trace ring as JSON; ?min=DURATION filters (e.g.
//	              ?min=10ms), ?limit=N (N >= 1) keeps only the most recent N
//	/stat/<view>  a system relation as JSON rows (e.g. /stat/activity or
//	              /stat/sys.stat_activity), scanned through the ordinary
//	              relation machinery
//	/healthz      WAL/buffer/lock liveness as JSON; 503 when a subsystem
//	              probe fails
//	/debug/pprof/ the Go runtime's profiles (net/http/pprof): heap, profile
//	              (CPU), mutex, block, goroutine, trace — performance work
//	              starts from one
//
// The server runs until Env.Close (or StopDebug); a second ServeDebug
// call replaces the first server.
func (env *Env) ServeDebug(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("core: debug server listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", env.handleMetrics)
	mux.HandleFunc("/traces", env.handleTraces)
	mux.HandleFunc("/stat/", env.handleStat)
	mux.HandleFunc("/healthz", env.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index) // serves every named profile
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds := &debugServer{
		env: env,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	env.debugMu.Lock()
	prev := env.debug
	env.debug = ds
	env.debugMu.Unlock()
	if prev != nil {
		prev.stop()
	}
	go ds.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// stop closes the server and then the listener itself: srv.Close only
// closes listeners Serve has registered, and Serve runs in a goroutine
// that may not have been scheduled yet, which would leave ln accepting.
func (ds *debugServer) stop() error {
	err := ds.srv.Close()
	ds.ln.Close() // fails harmlessly when srv.Close already closed it
	return err
}

// StopDebug shuts the debug server down, closing its listener and any
// in-flight connections. It is a no-op when no server is running, and is
// called by Env.Close.
func (env *Env) StopDebug() error {
	env.debugMu.Lock()
	ds := env.debug
	env.debug = nil
	env.debugMu.Unlock()
	if ds == nil {
		return nil
	}
	return ds.stop()
}

// DebugAddr returns the running debug server's bound address ("" when no
// server is up).
func (env *Env) DebugAddr() string {
	env.debugMu.Lock()
	defer env.debugMu.Unlock()
	if env.debug == nil {
		return ""
	}
	return env.debug.ln.Addr().String()
}

func (env *Env) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Headers are out: on a write error there is nothing more to do than
	// drop the connection.
	_ = obs.WritePrometheus(w, env.MetricFamilies())
}

func (env *Env) handleTraces(w http.ResponseWriter, r *http.Request) {
	var min time.Duration
	if v := r.URL.Query().Get("min"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad min duration %q: %v", v, err), http.StatusBadRequest)
			return
		}
		min = d
	}
	traces := env.Tracer.Traces(min)
	if v := r.URL.Query().Get("limit"); v != "" {
		// strconv.Atoi rejects trailing garbage Sscanf would swallow, and a
		// zero or negative limit is an explicit client error, not "keep
		// nothing" silently.
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, fmt.Sprintf("bad limit %q (want an integer >= 1)", v), http.StatusBadRequest)
			return
		}
		if n < len(traces) {
			traces = traces[len(traces)-n:] // the ring is oldest-first
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{
		"stats":  env.Tracer.Stats(),
		"traces": traces,
	})
}

// handleStat serves one system relation as JSON rows. The view name after
// /stat/ may be short ("activity") or fully qualified
// ("sys.stat_activity"); rows come through the ordinary relation scan
// path, so this endpoint exercises exactly what SQL over the view would.
func (env *Env) handleStat(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/stat/")
	if name == "" {
		http.Error(w, "missing view name (e.g. /stat/activity)", http.StatusBadRequest)
		return
	}
	if !strings.Contains(name, ".") {
		name = "sys.stat_" + name
	}
	rd, ok := env.Cat.ByName(name)
	if !ok || !IsSystemRelID(rd.RelID) {
		http.Error(w, fmt.Sprintf("unknown system relation %q", name), http.StatusNotFound)
		return
	}
	rel, err := env.OpenRelation(rd)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	tx := env.Begin()
	defer tx.Commit()
	sc, err := rel.OpenScan(tx, ScanOptions{})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer sc.Close()
	rows := []map[string]any{}
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			break
		}
		row := make(map[string]any, len(rd.Schema.Cols))
		for i, c := range rd.Schema.Cols {
			row[c.Name] = valueJSON(rec[i])
		}
		rows = append(rows, row)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{"view": name, "rows": rows})
}

// valueJSON converts a field value to its natural JSON representation.
func valueJSON(v types.Value) any {
	switch v.K {
	case types.KindInt:
		return v.I
	case types.KindFloat:
		return v.F
	case types.KindString:
		return v.S
	case types.KindBytes:
		return v.B
	case types.KindBool:
		return v.I != 0
	default:
		return nil
	}
}

// handleHealthz probes each common service with a cheap live operation:
// the log reports its durable high-water mark, the buffer pool its frame
// accounting, the lock manager its queue state. A probe error (e.g. a
// closed log device) turns the response into a 503.
func (env *Env) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type probe struct {
		OK     bool   `json:"ok"`
		Detail string `json:"detail,omitempty"`
	}
	snap := env.Obs.Snapshot()
	health := struct {
		OK     bool  `json:"ok"`
		WAL    probe `json:"wal"`
		Buffer probe `json:"buffer"`
		Lock   probe `json:"lock"`
	}{OK: true}

	// The WAL probe is a real round trip: Sync forces the log device, so a
	// dead or closed device turns the probe red instead of lying green.
	if err := env.Log.Sync(); err != nil {
		health.WAL = probe{OK: false, Detail: err.Error()}
		health.OK = false
	} else {
		health.WAL = probe{OK: true, Detail: fmt.Sprintf("durable_lsn=%d appends=%d syncs=%d",
			env.Log.Durable(), snap.WAL.Appends, snap.WAL.Syncs)}
	}
	health.Buffer = probe{OK: true, Detail: fmt.Sprintf("hits=%d misses=%d hit_ratio=%.3f",
		snap.Buffer.Hits, snap.Buffer.Misses, snap.Buffer.HitRatio)}
	health.Lock = probe{OK: true, Detail: fmt.Sprintf("requests=%d waiting=%d deadlocks=%d",
		snap.Lock.Requests, snap.Lock.Waiting, snap.Lock.Deadlocks)}

	w.Header().Set("Content-Type", "application/json")
	if !health.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(health)
}
