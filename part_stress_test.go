package dmx

// Concurrent two-phase-commit stress: eight sessions run mixed DML over a
// four-shard partitioned relation whose shard servers carry skewed
// latencies, so prepare and commit deliveries interleave in every order.
// Workers write disjoint id ranges and acknowledge commits into a shadow
// map; the harness then cross-checks the relation contents against the
// shadow, reconciles the sys.stat_shards view with the servers' own
// counters, and finally abandons the coordinator without Close and
// recovers onto brand-new empty shard servers — the local log alone must
// rebuild every shard.
//
// The default shape is sized for `go test ./...`; set DMX_STRESS_DEEP=1
// for the larger soak used by `make race`.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dmx/internal/lock"
)

const partStressShards = 4

type partShadow struct {
	mu   sync.Mutex
	vals map[int]string
}

func (m *partShadow) set(id int, val string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if val == "" {
		delete(m.vals, id)
	} else {
		m.vals[id] = val
	}
}

func TestStressPartConcurrent2PC(t *testing.T) {
	workers, ops := 8, 50
	if os.Getenv("DMX_STRESS_DEEP") != "" {
		workers, ops = 8, 150
	}
	dir := t.TempDir()
	cfg := Config{
		LogPath:         filepath.Join(dir, "wal.log"),
		DiskPath:        filepath.Join(dir, "data.db"),
		CheckpointEvery: 500,
	}
	newServers := func() []*ForeignServer {
		var srvs []*ForeignServer
		for i := 0; i < partStressShards; i++ {
			// Skewed latencies stagger shard acknowledgements, so slow
			// shards are still preparing while fast ones already voted.
			srvs = append(srvs, NewForeignServer(time.Duration(i)*50*time.Microsecond))
		}
		return srvs
	}
	byName := func(srvs []*ForeignServer) map[string]*ForeignServer {
		m := make(map[string]*ForeignServer, len(srvs))
		for i, srv := range srvs {
			m[fmt.Sprintf("p%d", i)] = srv
		}
		return m
	}
	srvs := newServers()
	cfg.Servers = byName(srvs)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE st (id INT NOT NULL, v STRING) USING part" +
		" WITH (key=id, shards=4, servers='p0,p1,p2,p3', batch=9)"); err != nil {
		t.Fatal(err)
	}

	shadow := &partShadow{vals: make(map[int]string)}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			partStressWorker(t, db, shadow, w, ops)
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	partStressVerify(t, db, shadow, srvs, "post-storm")

	// Simulated coordinator crash onto brand-new shard backends: the
	// handles are abandoned without Close, and recovery must rebuild every
	// shard's contents from the local log before the verify rereads them.
	srvs2 := newServers()
	cfg.Recover, cfg.Servers = true, byName(srvs2)
	db2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	partStressVerify(t, db2, shadow, srvs2, "post-recovery")
}

// partStressWorker drives one session over its private id range: inserts,
// routed point updates and deletes, multi-shard explicit transactions, and
// point reads of its own acknowledged rows.
func partStressWorker(t *testing.T, db *DB, shadow *partShadow, w, ops int) {
	rng := rand.New(rand.NewSource(int64(w) + 1))
	s := db.NewSession()
	base := (w + 1) * 10000
	next := base
	var live []int
	exec := func(stmt string) bool {
		t.Helper()
		if _, err := s.Exec(stmt); err != nil {
			if errors.Is(err, lock.ErrDeadlock) {
				return false
			}
			t.Errorf("w%d: %q: %v", w, stmt, err)
			return false
		}
		return true
	}
	for i := 0; i < ops && !t.Failed(); i++ {
		switch k := rng.Intn(10); {
		case k < 4: // autocommit insert
			id := next
			next++
			v := fmt.Sprintf("w%d-%d-%d", w, id, i)
			if exec(fmt.Sprintf("INSERT INTO st VALUES (%d, '%s')", id, v)) {
				shadow.set(id, v)
				live = append(live, id)
			}
		case k < 6 && len(live) > 0: // routed point update
			id := live[rng.Intn(len(live))]
			v := fmt.Sprintf("w%d-%d-u%d", w, id, i)
			if exec(fmt.Sprintf("UPDATE st SET v = '%s' WHERE id = %d", v, id)) {
				shadow.set(id, v)
			}
		case k < 7 && len(live) > 0: // routed point delete
			j := rng.Intn(len(live))
			id := live[j]
			if exec(fmt.Sprintf("DELETE FROM st WHERE id = %d", id)) {
				shadow.set(id, "")
				live = append(live[:j], live[j+1:]...)
			}
		case k < 9: // multi-shard transaction: three inserts, one 2PC
			ids := []int{next, next + 1, next + 2}
			next += 3
			if _, err := s.Exec("BEGIN"); err != nil {
				t.Errorf("w%d begin: %v", w, err)
				continue
			}
			vals := make(map[int]string, len(ids))
			end := "COMMIT"
			for _, id := range ids {
				v := fmt.Sprintf("w%d-%d-m%d", w, id, i)
				vals[id] = v
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO st VALUES (%d, '%s')", id, v)); err != nil {
					if !errors.Is(err, lock.ErrDeadlock) {
						t.Errorf("w%d multi insert: %v", w, err)
					}
					end = "ROLLBACK"
					break
				}
			}
			if _, err := s.Exec(end); err != nil {
				t.Errorf("w%d %s: %v", w, end, err)
				continue
			}
			if end == "COMMIT" {
				for _, id := range ids {
					shadow.set(id, vals[id])
					live = append(live, id)
				}
			}
		default: // routed point read of an acknowledged row
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))]
			res, err := s.Exec(fmt.Sprintf("SELECT v FROM st WHERE id = %d", id))
			if err != nil {
				if !errors.Is(err, lock.ErrDeadlock) {
					t.Errorf("w%d read %d: %v", w, id, err)
				}
				continue
			}
			if len(res.Rows) != 1 {
				t.Errorf("w%d read id %d: %d rows", w, id, len(res.Rows))
			}
		}
	}
}

// partStressVerify cross-checks the relation against the shadow map, then
// reconciles sys.stat_shards with both the scan and the servers' own
// message counters.
func partStressVerify(t *testing.T, db *DB, shadow *partShadow, srvs []*ForeignServer, stage string) {
	t.Helper()
	res, err := db.Exec("SELECT id, v FROM st")
	if err != nil {
		t.Fatalf("%s: scan: %v", stage, err)
	}
	shadow.mu.Lock()
	defer shadow.mu.Unlock()
	seen := make(map[int]string, len(res.Rows))
	for _, r := range res.Rows {
		id := int(r[0].AsInt())
		if _, dup := seen[id]; dup {
			t.Fatalf("%s: duplicate id %d", stage, id)
		}
		seen[id] = r[1].S
	}
	if len(seen) != len(shadow.vals) {
		t.Fatalf("%s: %d rows survive, shadow has %d", stage, len(seen), len(shadow.vals))
	}
	for id, want := range shadow.vals {
		got, ok := seen[id]
		if !ok {
			t.Fatalf("%s: acknowledged id %d lost", stage, id)
		}
		if got != want {
			t.Fatalf("%s: id %d = %q, shadow says %q", stage, id, got, want)
		}
	}

	stat, err := db.Exec("SELECT shard, records, in_doubt, messages FROM sys.stat_shards")
	if err != nil {
		t.Fatalf("%s: stat_shards: %v", stage, err)
	}
	if len(stat.Rows) != partStressShards {
		t.Fatalf("%s: stat_shards has %d rows, want %d", stage, len(stat.Rows), partStressShards)
	}
	total := int64(0)
	populated := 0
	for _, r := range stat.Rows {
		shardNo, recs, doubt, msgs := r[0].AsInt(), r[1].AsInt(), r[2].AsInt(), r[3].AsInt()
		total += recs
		if recs > 0 {
			populated++
		}
		if doubt != 0 {
			t.Fatalf("%s: shard %d reports %d in-doubt transactions", stage, shardNo, doubt)
		}
		if srvMsgs := srvs[shardNo].Messages.Load(); msgs > srvMsgs {
			t.Fatalf("%s: shard %d view reports %d messages, server counted %d", stage, shardNo, msgs, srvMsgs)
		}
		if msgs == 0 {
			t.Fatalf("%s: shard %d saw no traffic", stage, shardNo)
		}
	}
	if int(total) != len(seen) {
		t.Fatalf("%s: stat_shards counts %d records, scan returned %d", stage, total, len(seen))
	}
	if len(seen) >= 16 && populated < 2 {
		t.Fatalf("%s: %d records all landed on one shard", stage, len(seen))
	}
}
