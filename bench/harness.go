package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"dmx"
)

// workload is one named traffic mix. Every workload is a closed loop:
// each client goroutine issues its next op only after the previous one
// returned, as callers of an embedded engine do.
type workload struct {
	name    string
	why     string
	op      string // what one op is
	clients int    // never more than nproc on the 2-core reference box
	// timedQuiesce puts the between-phase checkpoint inside the measured
	// phase: a file-backed engine takes its checkpoints during traffic and
	// stalls every writer meanwhile, so the cost belongs to the result —
	// scheduled once per phase rather than by append count, so every run
	// pays for the same number.
	timedQuiesce bool
	setup        func(cfg config) (instance, error)
	// newGens builds the per-client op generators without an engine, so
	// the op stream can be fingerprinted on its own.
	newGens func(cfg config) []generator
}

// config is what a workload needs to build itself.
type config struct {
	seed  uint64
	scale float64 // 1 for every reported number; smaller only for smoke tests
	dir   string  // scratch directory for file-backed state
}

// scaled shrinks a size for smoke runs, never below min.
func (c config) scaled(n, min int) int {
	n = int(float64(n) * c.scale)
	if n < min {
		return min
	}
	return n
}

// op is one generated operation: a kind and up to three integer
// arguments. Statements and records are derived from it, so the engine
// only ever sees generated inputs and hashing ops fingerprints them.
type op struct {
	kind    uint8
	a, b, c int64
}

// generator yields a client's op stream and maintains the shadow state
// the results are checked against. It never touches the engine.
type generator interface {
	next() op
}

// instance is a workload that has been set up against a live engine.
type instance interface {
	// step generates client c's next op, executes it, checks the result
	// against the shadow state and records it on m.
	step(c int, m *meter)
	// pause runs on client c's goroutine when a measurement phase ends
	// (commit an open transaction, release a snapshot).
	pause(c int, m *meter)
	// quiesce runs between phases with every client stopped: a checkpoint,
	// which keeps the log bounded.
	quiesce(m *meter) error
	// finish runs the end-of-run correctness checks and returns how many
	// were made and how many failed.
	finish() (checks, failed int64, err error)
	close() error
	db() *dmx.DB
	// info describes the instance to the layer accounting; read after
	// finish it carries what the end-of-run checks measured.
	info() info
}

type info struct {
	servers []*dmx.ForeignServer // foreign servers whose messages count
	// relopDirect says the benchmark calls the Relation ops itself, so
	// every storage-method and attachment call runs inside one of its
	// Relation-op spans.
	relopDirect bool
	scanRows    int64              // rows under the direct storage-method scan spans
	extra       map[string]float64 // layer metrics measured by finish (recovery time, space)
}

// tally counts what a phase did.
type tally struct {
	ops     int64
	failed  int64
	rows    int64 // result rows returned
	commits int64 // write transactions the benchmark committed itself
	writes  int64 // relation modifications issued
	userB   int64 // bytes of user data written
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.rows += o.rows
	t.commits += o.commits
	t.writes += o.writes
	t.userB += o.userB
}

// meter collects one client's measurements for the current phase.
type meter struct {
	tally
	tr       *tracer // nil in untraced phases
	h        hist
	deadline time.Time
	stop     bool
}

// done records an op that started at t0; ok is false when it returned an
// error or a wrong result.
func (m *meter) done(t0 time.Time, ok bool) {
	now := time.Now()
	m.h.record(int64(now.Sub(t0)))
	m.ops++
	if !ok {
		m.failed++
	}
	if !now.Before(m.deadline) {
		m.stop = true
	}
}

// window is what one measurement phase produced, summed over clients.
type window struct {
	tally
	wall    time.Duration
	h       hist
	mallocs uint64
	bytes   uint64
	gcPause uint64
	// opsPerBusySec is the rate over the time clients spent serving ops —
	// wall time minus the timed checkpoint and, in a traced phase, minus
	// ladder time — summed per client.
	opsPerBusySec float64
	// delta is how far the engine's counters moved over the phase; read
	// only in a traced run.
	delta counters
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / w.wall.Seconds() }

// runPhase checkpoints, drives every client for dur and joins them. The
// checkpoint is inside the measurement only for timedQuiesce workloads.
func runPhase(w *workload, inst instance, meters []*meter, dur time.Duration, count bool) (window, error) {
	var before, after runtime.MemStats
	var win window
	if !w.timedQuiesce {
		if err := inst.quiesce(meters[0]); err != nil {
			return window{}, fmt.Errorf("checkpoint between phases: %w", err)
		}
	}
	var c0 counters
	if count {
		c0 = readCounters(inst.db(), inst.info().servers)
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(dur)
	if w.timedQuiesce {
		if err := inst.quiesce(meters[0]); err != nil {
			return window{}, fmt.Errorf("checkpoint in phase: %w", err)
		}
	}
	serving := time.Now() // clients serve ops from here to the end of the phase
	ladder0 := make([]int64, len(meters))
	var wg sync.WaitGroup
	for c, m := range meters {
		m.h.reset()
		m.tally = tally{}
		m.deadline, m.stop = deadline, false
		if m.tr != nil {
			ladder0[c] = m.tr.ladder
		}
		wg.Add(1)
		go func(c int, m *meter) {
			defer wg.Done()
			for !m.stop {
				inst.step(c, m)
			}
			inst.pause(c, m)
		}(c, m)
	}
	wg.Wait()
	win.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	if count {
		win.delta = readCounters(inst.db(), inst.info().servers).minus(c0)
	}
	win.mallocs = after.Mallocs - before.Mallocs
	win.bytes = after.TotalAlloc - before.TotalAlloc
	win.gcPause = after.PauseTotalNs - before.PauseTotalNs
	for c, m := range meters {
		win.add(m.tally)
		win.h.merge(&m.h)
		busy := win.wall - serving.Sub(start)
		if m.tr != nil {
			busy -= time.Duration(m.tr.ladder - ladder0[c])
		}
		if busy > 0 {
			win.opsPerBusySec += float64(m.ops) / busy.Seconds()
		}
	}
	return win, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// inputHash fingerprints a workload's generated inputs: the first
// hashedOps ops of every client's stream for the given seed and scale.
func inputHash(w *workload, cfg config) string {
	const hashedOps = 20000
	h := sha256.New()
	var buf [25]byte
	for _, g := range w.newGens(cfg) {
		for i := 0; i < hashedOps; i++ {
			o := g.next()
			buf[0] = o.kind
			binary.LittleEndian.PutUint64(buf[1:], uint64(o.a))
			binary.LittleEndian.PutUint64(buf[9:], uint64(o.b))
			binary.LittleEndian.PutUint64(buf[17:], uint64(o.c))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rng is splitmix64: tiny, allocation-free, and the same sequence on
// every Go release, which math/rand does not promise across versions.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream int) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 + uint64(stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// mix is an order-independent row checksum term: rows are summed, so a
// full scan can be compared with the shadow without sorting either.
func mix(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	z = (z ^ (z >> 29)) * 0xBF58476D1CE4E5B9
	return z ^ (z >> 32)
}

// keyArena stores engine-assigned record keys back to back, so a shadow
// of millions of keys costs no per-key allocation.
type keyArena struct {
	buf []byte
	off []uint32
}

func (a *keyArena) add(k dmx.Key) {
	a.off = append(a.off, uint32(len(a.buf)))
	a.buf = append(a.buf, k...)
}

func (a *keyArena) at(i int64) dmx.Key {
	end := uint32(len(a.buf))
	if int(i)+1 < len(a.off) {
		end = a.off[i+1]
	}
	return dmx.Key(a.buf[a.off[i]:end])
}

func mustExec(db *dmx.DB, stmts ...string) error {
	_, err := db.Exec(stmts...)
	return err
}

// pad returns deterministic filler of n bytes that differs per row.
func pad(n int, id int64) string {
	b := make([]byte, n)
	s := fmt.Sprintf("%012d", id)
	for i := range b {
		b[i] = s[i%len(s)]
	}
	return string(b)
}
