package dmx

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/fault"
	"dmx/internal/remote"
	"dmx/internal/types"
)

const partCrashShards = 3

// partCrashOp is one intended effect of the transaction in flight when the
// injected crash fires.
type partCrashOp struct {
	kind string // "insert", "update", "delete"
	id   int
	val  string
}

// partCrashState tracks what one partitioned workload acknowledged. The
// shard servers live here too: they stand for separate processes that
// survive the coordinator crash, so Verify reattaches the same instances
// and recovery must settle whatever they still hold prepared.
type partCrashState struct {
	dir      string
	srvs     []*remote.Server
	ddlAcked bool
	vals     map[int]string // id -> value, acknowledged transactions only
	inFlight []partCrashOp
}

// partCrashScenarios sweeps the two-phase-commit crash window. The
// part.decide site lands the crash after every shard has acknowledged
// prepare but before the commit decision reaches the local log — the
// shards are left in doubt and recovery must presume abort. The WAL sites
// land crashes on the decision record itself (append lost, flush torn,
// synced-but-unacknowledged). The "ackloss" cells additionally make one
// shard reject a commit delivery mid-workload, so an acknowledged
// transaction is still prepared on that shard when the crash hits, and
// recovery must drive it to the logged commit outcome.
func partCrashScenarios(deep bool) []fault.Scenario {
	var out []fault.Scenario
	add := func(name string, site fault.Site, nth int, durable bool) {
		out = append(out, fault.Scenario{Name: name, Site: site, Nth: nth, ExpectDurable: durable})
	}
	add("part-decide@1", fault.SitePartDecide, 1, false)
	add("part-decide@4", fault.SitePartDecide, 4, false)
	add("part-wal.append@9", fault.SiteWALAppend, 9, false)
	add("part-wal.flush@9", fault.SiteWALFlush, 9, false)
	add("part-wal.synced@9", fault.SiteWALSynced, 9, true)
	add("part-ackloss-decide@5", fault.SitePartDecide, 5, false)
	add("part-ackloss-flush@17", fault.SiteWALFlush, 17, false)
	if deep {
		add("part-decide@2", fault.SitePartDecide, 2, false)
		add("part-decide@8", fault.SitePartDecide, 8, false)
		add("part-wal.append@23", fault.SiteWALAppend, 23, false)
		add("part-wal.synced@23", fault.SiteWALSynced, 23, true)
		// Lands well past the first fuzzy checkpoint, so recovery replays
		// the snapshot-embedded shard contents onto the surviving servers
		// before redoing the tail.
		add("part-wal.flush@90", fault.SiteWALFlush, 90, false)
		add("part-ackloss-decide@11", fault.SitePartDecide, 11, false)
	}
	return out
}

// partCrashBatch derives the transaction for one batch: three inserts
// spreading across shards by hash, plus periodic updates and deletes of
// earlier acknowledged rows (update targets are ≡1 and delete targets ≡2
// mod 3, so they never collide with each other).
func partCrashBatch(batch int) []partCrashOp {
	base := batch*3 + 1
	ops := []partCrashOp{
		{"insert", base, fmt.Sprintf("v%d", base)},
		{"insert", base + 1, fmt.Sprintf("v%d", base+1)},
		{"insert", base + 2, fmt.Sprintf("v%d", base+2)},
	}
	if batch > 0 && batch%3 == 0 {
		id := (batch-1)*3 + 1
		ops = append(ops, partCrashOp{"update", id, fmt.Sprintf("u%d", id)})
	}
	if batch > 1 && batch%4 == 0 {
		ops = append(ops, partCrashOp{"delete", (batch-2)*3 + 2, ""})
	}
	return ops
}

// TestCrashPart2PC runs multi-shard transactions through the partitioned
// storage method under the two-phase-commit crash matrix and asserts the
// coordinator contract after recovery: acknowledged transactions fully
// visible on every shard (including shards whose commit delivery was
// lost), the unacknowledged in-flight transaction atomic across shards,
// and no shard left in doubt. (Named TestCrash… so `make crash` picks it
// up.)
func TestCrashPart2PC(t *testing.T) {
	root := t.TempDir()
	states := make(map[string]*partCrashState)

	open := func(st *partCrashState, inj *fault.Injector, ckptEvery int, recover bool) (*DB, error) {
		srvs := make(map[string]*ForeignServer, len(st.srvs))
		for i, srv := range st.srvs {
			srvs[fmt.Sprintf("s%d", i)] = srv
		}
		return Open(Config{
			LogPath:         filepath.Join(st.dir, "wal.log"),
			DiskPath:        filepath.Join(st.dir, "data.db"),
			CheckpointEvery: ckptEvery,
			Faults:          inj,
			Recover:         recover,
			Servers:         srvs,
		})
	}

	h := &fault.Harness{
		Scenarios: partCrashScenarios(os.Getenv("DMX_CRASH_DEEP") != ""),
		Workload: func(s fault.Scenario, inj *fault.Injector) error {
			st := &partCrashState{
				dir:  filepath.Join(root, s.Name),
				vals: make(map[int]string),
			}
			for i := 0; i < partCrashShards; i++ {
				st.srvs = append(st.srvs, remote.NewServer(0))
			}
			states[s.Name] = st
			if err := os.MkdirAll(st.dir, 0o755); err != nil {
				return err
			}
			// Ack-loss cells disable checkpointing: a fuzzy checkpoint scans
			// committed shard contents only, so it cannot capture writes an
			// in-doubt shard still holds prepared, and truncating the log
			// would drop the commit record resolution needs. Resolution runs
			// at every recovery, before checkpoints resume.
			ckptEvery := 64
			ackLoss := strings.Contains(s.Name, "ackloss")
			if ackLoss {
				ckptEvery = -1
			}
			db, err := open(st, inj, ckptEvery, false)
			if err != nil {
				return err
			}
			// No db.Close(): the injected crash is a process death.
			if _, err := db.Exec("CREATE TABLE pt (id INT NOT NULL, v STRING) USING part" +
				" WITH (key=id, servers='s0,s1,s2', batch=5)"); err != nil {
				return err
			}
			st.ddlAcked = true
			rel, err := db.Env.OpenRelationByName("pt")
			if err != nil {
				return err
			}
			for batch := 0; batch < 400; batch++ {
				if ackLoss && batch == 2 {
					// The next commit delivery to shard server s1 is
					// rejected: the transaction is acknowledged (the
					// decision is logged locally) but stays prepared there.
					st.srvs[1].InjectFault(remote.OpCommitTxn, remote.FaultReject, 1)
				}
				ops := partCrashBatch(batch)
				st.inFlight = ops
				tx := db.Env.Begin()
				for _, op := range ops {
					key := types.EncodeKeyValues(types.Int(int64(op.id)))
					var err error
					switch op.kind {
					case "insert":
						_, err = rel.Insert(tx, types.Record{types.Int(int64(op.id)), types.Str(op.val)})
					case "update":
						_, err = rel.Update(tx, key, types.Record{types.Int(int64(op.id)), types.Str(op.val)})
					case "delete":
						err = rel.Delete(tx, key)
					}
					if err != nil {
						return err
					}
				}
				if err := tx.Commit(); err != nil {
					return err
				}
				for _, op := range ops {
					if op.kind == "delete" {
						delete(st.vals, op.id)
					} else {
						st.vals[op.id] = op.val
					}
				}
				st.inFlight = nil
			}
			return fmt.Errorf("workload finished without crashing")
		},
		Verify: func(tb fault.TB, s fault.Scenario) {
			st := states[s.Name]
			db, err := open(st, nil, -1, true)
			if err != nil {
				tb.Errorf("%s: reopen: %v", s.Name, err)
				return
			}
			defer db.Close()

			res, err := db.Exec("SELECT id, v FROM pt")
			if err != nil {
				if !st.ddlAcked {
					return
				}
				tb.Errorf("%s: table lost after acked CREATE: %v", s.Name, err)
				return
			}
			got := make(map[int]string, len(res.Rows))
			for _, row := range res.Rows {
				id := int(row[0].AsInt())
				if _, dup := got[id]; dup {
					tb.Errorf("%s: id %d recovered twice", s.Name, id)
				}
				got[id] = row[1].S
			}

			// The in-flight transaction must be atomic across shards: with a
			// durable decision record it may be fully applied, at every
			// other site it must be fully absent.
			applied := false
			if s.ExpectDurable && len(st.inFlight) > 0 {
				first := st.inFlight[0]
				applied = got[first.id] == first.val
			}
			inFlight := func(kind string, id int) bool {
				if !applied {
					return false
				}
				for _, op := range st.inFlight {
					if op.kind == kind && op.id == id {
						return true
					}
				}
				return false
			}
			for _, op := range st.inFlight {
				v, ok := got[op.id]
				switch op.kind {
				case "insert":
					if ok != applied {
						tb.Errorf("%s: in-flight insert %d: present=%v, decision applied=%v",
							s.Name, op.id, ok, applied)
					}
				case "update":
					if applied && (!ok || v != op.val) {
						tb.Errorf("%s: in-flight update %d: got %q, want applied %q", s.Name, op.id, v, op.val)
					}
				case "delete":
					if applied && ok {
						tb.Errorf("%s: in-flight delete %d still present", s.Name, op.id)
					}
				}
			}
			// Every acknowledged transaction is fully visible — including
			// the ack-loss cell's transaction, whose writes one shard held
			// prepared until recovery resolved it to the logged commit.
			for id, want := range st.vals {
				v, ok := got[id]
				switch {
				case !ok && !inFlight("delete", id):
					tb.Errorf("%s: acked id %d lost (recovered %d rows)", s.Name, id, len(got))
				case ok && v != want && !inFlight("update", id):
					tb.Errorf("%s: id %d recovered %q, want %q", s.Name, id, v, want)
				}
			}
			for id := range got {
				if _, ok := st.vals[id]; !ok && !inFlight("insert", id) {
					tb.Errorf("%s: unacked id %d visible after recovery", s.Name, id)
				}
			}

			// No shard may be left in doubt, and the shard tables must hold
			// exactly the visible rows between them.
			total := 0
			populated := 0
			for i, srv := range st.srvs {
				c := remote.Dial(srv)
				ids, err := c.InDoubt()
				if err != nil {
					tb.Errorf("%s: shard %d in-doubt probe: %v", s.Name, i, err)
					c.Close()
					continue
				}
				if len(ids) != 0 {
					tb.Errorf("%s: shard %d still in doubt after recovery: %v", s.Name, i, ids)
				}
				n, err := c.Count(fmt.Sprintf("pt#%d", i))
				c.Close()
				if err != nil {
					tb.Errorf("%s: shard %d count: %v", s.Name, i, err)
					continue
				}
				total += n
				if n > 0 {
					populated++
				}
			}
			if total != len(got) {
				tb.Errorf("%s: shards hold %d records, scan returned %d", s.Name, total, len(got))
			}
			if len(got) >= 8 && populated < 2 {
				tb.Errorf("%s: %d records all landed on one shard", s.Name, len(got))
			}

			// The recovered coordinator keeps committing two-phase: a fresh
			// multi-shard transaction lands and reads back.
			if _, err := db.Exec("INSERT INTO pt VALUES (9999, 'post-recovery')"); err != nil {
				tb.Errorf("%s: post-recovery insert: %v", s.Name, err)
				return
			}
			r, err := db.Exec("SELECT v FROM pt WHERE id = 9999")
			if err != nil || len(r.Rows) != 1 || r.Rows[0][0].S != "post-recovery" {
				tb.Errorf("%s: post-recovery readback: %+v, %v", s.Name, r, err)
			}
		},
	}
	h.Run(t)
}
