package partsm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dmx/internal/core"
	"dmx/internal/ddl"
	"dmx/internal/fault"
	"dmx/internal/remote"
	"dmx/internal/sm/partsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "val", Kind: types.KindString},
	)
}

func rec(id int64, val string) types.Record {
	return types.Record{types.Int(id), types.Str(val)}
}

func attach(env *core.Env, srvs []*remote.Server) {
	for i, s := range srvs {
		partsm.AttachServer(env, fmt.Sprintf("s%d", i), s)
	}
}

func setup(t *testing.T, shards int) (*core.Env, []*remote.Server, *core.Relation) {
	t.Helper()
	env := core.NewEnv(core.Config{})
	srvs := make([]*remote.Server, shards)
	names := ""
	for i := range srvs {
		srvs[i] = remote.NewServer(0)
		if i > 0 {
			names += ","
		}
		names += fmt.Sprintf("s%d", i)
	}
	attach(env, srvs)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "users", schema(), "part",
		core.AttrList{"key": "id", "servers": names, "batch": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	return env, srvs, r
}

func scanAll(t *testing.T, env *core.Env, r *core.Relation) []types.Record {
	t.Helper()
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out []types.Record
	for {
		_, rec, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// TestPartBasic drives inserts/updates/deletes across shards and checks
// that scans merge the shards back into global key order, with staged
// writes invisible until commit.
func TestPartBasic(t *testing.T) {
	env, srvs, r := setup(t, 3)
	tx := env.Begin()
	const n = 20
	for i := 1; i <= n; i++ {
		if _, err := r.Insert(tx, rec(int64(i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Before commit nothing has reached committed shard state (the
	// writes are staged server-side under the transaction id).
	for i, s := range srvs {
		c := remote.Dial(s)
		n, err := c.Count(fmt.Sprintf("users#%d", i))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("staged writes leaked: shard %d holds %d records before commit", i, n)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, env, r)
	if len(got) != n {
		t.Fatalf("want %d records, got %d", n, len(got))
	}
	for i, g := range got {
		if g[0].I != int64(i+1) {
			t.Fatalf("scan out of key order at %d: %v", i, g)
		}
	}
	// The records actually spread across shards.
	perShard := 0
	for i, s := range srvs {
		c := remote.Dial(s)
		n, err := c.Count(fmt.Sprintf("users#%d", i))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			perShard++
		}
	}
	if perShard < 2 {
		t.Fatalf("hash sharding left %d of 3 shards populated", perShard)
	}
}

// TestPartRollback checks that an aborted transaction's staged writes
// never reach committed shard state, including partial rollback of
// updates and deletes over committed records.
func TestPartRollback(t *testing.T) {
	env, _, r := setup(t, 3)
	tx := env.Begin()
	keys := make([]types.Key, 0, 5)
	for i := 1; i <= 5; i++ {
		k, err := r.Insert(tx, rec(int64(i), "base"))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	if _, err := r.Update(tx, keys[0], rec(1, "changed")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tx, keys[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(tx, rec(99, "new")); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	got, err := r.Fetch(tx, keys[0], nil, nil)
	if err != nil || got[1].S != "changed" {
		t.Fatalf("read-your-writes: %v %v", got, err)
	}
	if _, err := r.Fetch(tx, keys[1], nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("deleted key still visible in txn: %v", err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	got2 := scanAll(t, env, r)
	if len(got2) != 5 {
		t.Fatalf("abort left %d records, want 5", len(got2))
	}
	for _, g := range got2 {
		if g[1].S != "base" {
			t.Fatalf("abort leaked a staged write: %v", g)
		}
	}
}

// TestPartDuplicateKey checks primary-key enforcement across staged and
// committed state.
func TestPartDuplicateKey(t *testing.T) {
	env, _, r := setup(t, 2)
	tx := env.Begin()
	if _, err := r.Insert(tx, rec(7, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(tx, rec(7, "b")); !errors.Is(err, partsm.ErrDuplicateKey) {
		t.Fatalf("staged duplicate not rejected: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	if _, err := r.Insert(tx, rec(7, "c")); !errors.Is(err, partsm.ErrDuplicateKey) {
		t.Fatalf("committed duplicate not rejected: %v", err)
	}
	tx.Abort()
}

// TestPartRoutedPointAccess checks that a whole-key scan range touches
// exactly one shard while a full scan touches all of them.
func TestPartRoutedPointAccess(t *testing.T) {
	env, srvs, r := setup(t, 4)
	tx := env.Begin()
	for i := 1; i <= 40; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	messages := func() []int64 {
		out := make([]int64, len(srvs))
		for i, s := range srvs {
			out[i] = s.Messages.Load()
		}
		return out
	}
	touched := func(before, after []int64) int {
		n := 0
		for i := range before {
			if after[i] != before[i] {
				n++
			}
		}
		return n
	}
	// Whole-key range: route to the owning shard.
	key := types.EncodeKeyFields(rec(17, "x"), []int{0})
	tx = env.Begin()
	before := messages()
	sc, err := r.OpenScan(tx, core.ScanOptions{Start: key, End: keySuccessor(key)})
	if err != nil {
		t.Fatal(err)
	}
	_, got, ok, err := sc.Next()
	if err != nil || !ok || got[0].I != 17 {
		t.Fatalf("routed point scan: %v %v %v", got, ok, err)
	}
	if _, _, ok, _ := sc.Next(); ok {
		t.Fatal("routed point scan returned a second record")
	}
	sc.Close()
	if n := touched(before, messages()); n != 1 {
		t.Fatalf("point scan touched %d shards, want 1", n)
	}
	// Full scan: all shards.
	before = messages()
	sc, err = r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	sc.Close()
	if n := touched(before, messages()); n != len(srvs) {
		t.Fatalf("full scan touched %d shards, want %d", n, len(srvs))
	}
	tx.Commit()
	snap := env.Obs.Part.RoutedScans.Load()
	if snap == 0 {
		t.Fatal("routed scan counter never moved")
	}
}

// TestFetchFailureIsNotAMissingKey: a fetch whose call to the shard fails
// reports that failure, so an index-then-fetch read cannot mistake it for
// a record deleted since the lookup and skip the row; only the shard's own
// "no such key" reads as core.ErrNotFound.
func TestFetchFailureIsNotAMissingKey(t *testing.T) {
	env, srvs, r := setup(t, 1)
	tx := env.Begin()
	key, err := r.Insert(tx, rec(1, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	defer tx.Commit()
	srvs[0].InjectFault(remote.OpGet, remote.FaultReject, 1)
	if _, err := r.Fetch(tx, key, nil, nil); err == nil || errors.Is(err, core.ErrNotFound) {
		t.Fatalf("rejected Get: %v, want an error that is not ErrNotFound", err)
	}
	if got, err := r.Fetch(tx, key, nil, nil); err != nil || got[1].S != "x" {
		t.Fatalf("fetch after the fault: %v %v", got, err)
	}
	missing := types.EncodeKeyFields(rec(2, ""), []int{0})
	if _, err := r.Fetch(tx, missing, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
}

// TestCachedPointSelectMessages counts what one execution of a cached
// parameterised point SELECT sends to a 3-shard relation: the planner's
// record count (one Count per shard) and the routed read. Pricing the
// chosen path for the new value sends nothing: the estimate takes the
// planner's count instead of asking every shard again.
func TestCachedPointSelectMessages(t *testing.T) {
	env, srvs, r := setup(t, 3)
	tx := env.Begin()
	for i := 1; i <= 30; i++ {
		if _, err := r.Insert(tx, rec(int64(i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s := ddl.NewSession(env)
	messages := func() (n int64) {
		for _, srv := range srvs {
			n += srv.Messages.Load()
		}
		return n
	}
	if _, err := s.Exec("SELECT val FROM users WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	before := messages()
	res, err := s.Exec("SELECT val FROM users WHERE id = 17")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "v17" {
		t.Fatalf("rows %v, %v", res, err)
	}
	if n := messages() - before; n != 4 {
		t.Fatalf("a cached point SELECT sent %d messages, want 3 counts + 1 routed read", n)
	}
}

// TestBoundedScanShipsItsRange counts, at the servers, the entries a
// scatter scan over [a, b) receives: exactly the records in the range,
// committed and staged alike, and none at or past b from any shard.
func TestBoundedScanShipsItsRange(t *testing.T) {
	env, srvs, r := setup(t, 3)
	tx := env.Begin()
	for i := 0; i < 60; i += 2 {
		if _, err := r.Insert(tx, rec(int64(i), "committed")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	key := func(id int64) types.Key { return types.EncodeKeyFields(rec(id, ""), []int{0}) }
	tx = env.Begin()
	defer tx.Abort()
	for _, id := range []int64{11, 41} {
		if _, err := r.Insert(tx, rec(id, "staged")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Delete(tx, key(20)); err != nil {
		t.Fatal(err)
	}
	shipped := func() (n int64) {
		for _, srv := range srvs {
			n += srv.Shipped.Load()
		}
		return n
	}
	before := shipped()
	sc, err := r.OpenScan(tx, core.ScanOptions{Start: key(10), End: key(30)})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var got []int64
	for {
		_, g, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, g[0].I)
	}
	if want := "[10 11 12 14 16 18 22 24 26 28]"; fmt.Sprint(got) != want {
		t.Fatalf("scanned %v, want %s", got, want)
	}
	if n := shipped() - before; n != int64(len(got)) {
		t.Fatalf("the shards shipped %d entries for a %d-record range", n, len(got))
	}
}

func keySuccessor(k types.Key) types.Key {
	out := append(types.Key(nil), k...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// TestPartPrepareFaultVetoesCommit checks phase one: a shard refusing
// prepare vetoes the local commit and the transaction aborts cleanly on
// every shard.
func TestPartPrepareFaultVetoesCommit(t *testing.T) {
	env, srvs, r := setup(t, 3)
	tx := env.Begin()
	for i := 1; i <= 9; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range srvs {
		s.InjectFault(remote.OpPrepare, remote.FaultReject, 1)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded despite prepare refusal")
	}
	if got := scanAll(t, env, r); len(got) != 0 {
		t.Fatalf("vetoed commit leaked %d records", len(got))
	}
}

// TestPartCommitAckLossIsResolved checks phase two under ack loss on the
// decision delivery: the transaction is committed locally, the shard
// applied it (ack loss, not rejection), and counters record the loss.
func TestPartCommitAckLossIsResolved(t *testing.T) {
	env, srvs, r := setup(t, 2)
	for _, s := range srvs {
		s.InjectFault(remote.OpCommitTxn, remote.FaultAckLoss, 1)
	}
	tx := env.Begin()
	for i := 1; i <= 6; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, env, r); len(got) != 6 {
		t.Fatalf("want 6 records after ack-loss commit, got %d", len(got))
	}
	if env.Obs.Part.AckLost.Load() == 0 {
		t.Fatal("ack loss not counted")
	}
}

// TestPartCommitRejectThenResolve checks the rejected-decision path: the
// shard never hears the commit, stays prepared, and Resolve redelivers
// the logged outcome.
func TestPartCommitRejectThenResolve(t *testing.T) {
	env, srvs, r := setup(t, 2)
	for _, s := range srvs {
		s.InjectFault(remote.OpCommitTxn, remote.FaultReject, 1)
	}
	tx := env.Begin()
	for i := 1; i <= 6; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inDoubt := 0
	for _, s := range srvs {
		c := remote.Dial(s)
		ids, err := c.InDoubt()
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		inDoubt += len(ids)
	}
	if inDoubt == 0 {
		t.Fatal("rejected decision left no shard in doubt")
	}
	if err := partsm.Resolve(env); err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, env, r); len(got) != 6 {
		t.Fatalf("want 6 records after resolve, got %d", len(got))
	}
	if env.Obs.Part.Resolved.Load() == 0 {
		t.Fatal("resolution not counted")
	}
}

// TestPartDecideCrashSite checks the post-prepare pre-decision fault
// site: the commit fails, the shards hold only prepared state, and a
// recovery pass resolves them to abort (presumed abort — no decision
// was ever logged).
func TestPartDecideCrashSite(t *testing.T) {
	env := core.NewEnv(core.Config{Faults: fault.New()})
	srvs := []*remote.Server{remote.NewServer(0), remote.NewServer(0)}
	attach(env, srvs)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "users", schema(), "part",
		core.AttrList{"key": "id", "servers": "s0,s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	tx = env.Begin()
	for i := 1; i <= 8; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	env.Faults.Arm(fault.SitePartDecide, 1)
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded through the armed decision site")
	}
	if !env.Faults.Crashed() {
		t.Fatal("decision site never hit")
	}
	// The "crashed" coordinator is gone; a fresh environment over the
	// same servers resolves the in-doubt shards to abort.
	env2 := core.NewEnv(core.Config{})
	attach(env2, srvs)
	tx2 := env2.Begin()
	rd2, err := env2.CreateRelation(tx2, "users", schema(), "part",
		core.AttrList{"key": "id", "servers": "s0,s1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := partsm.Resolve(env2); err != nil {
		t.Fatal(err)
	}
	for i, s := range srvs {
		c := remote.Dial(s)
		ids, err := c.InDoubt()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 0 {
			t.Fatalf("server %d still in doubt after resolve: %v", i, ids)
		}
		n, err := c.Count("users#" + fmt.Sprint(i))
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("presumed abort leaked %d records to shard %d", n, i)
		}
	}
	if _, err := env2.OpenRelation(rd2); err != nil {
		t.Fatal(err)
	}
}

// TestUnloggedStagedWriteCannotCommit: an insert whose staging the shard
// carried out but reported as failed (a lost acknowledgement) is never
// logged, and leaves a transaction that logged nothing. Such a
// transaction would commit without the log, so the store vetoes it at
// prepare, and the shard never commits the write.
func TestUnloggedStagedWriteCannotCommit(t *testing.T) {
	env, srvs, r := setup(t, 1)
	srvs[0].InjectFault(remote.OpStageInsert, remote.FaultAckLoss, 1)
	tx := env.Begin()
	if _, err := r.Insert(tx, rec(1, "x")); err == nil {
		t.Fatal("an insert whose staging lost its acknowledgement succeeded")
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("a transaction whose staged write was never logged committed")
	}
	c := remote.Dial(srvs[0])
	defer c.Close()
	if n, err := c.Count("users#0"); err != nil || n != 0 {
		t.Fatalf("the shard committed %d records (%v)", n, err)
	}
}

// flavour is one of the two storage methods the store serves: the
// foreign-database method (one shard, a named foreign table, keys assigned
// by the server) and three hash shards keyed by id.
type flavour struct {
	sm     string
	attrs  core.AttrList
	tables []string // per attached server s<i>
}

var flavours = []flavour{
	{"remote", core.AttrList{"server": "s0", "table": "far_orders", "batch": "8"}, []string{"far_orders"}},
	{"part", core.AttrList{"key": "id", "servers": "s0,s1,s2", "batch": "8"}, []string{"orders#0", "orders#1", "orders#2"}},
}

// open creates relation "orders" of the flavour over fresh servers.
func (f flavour) open(t *testing.T, log *wal.Log) (*core.Env, []*remote.Server, *core.Relation) {
	t.Helper()
	env := core.NewEnv(core.Config{Log: log})
	t.Cleanup(func() { env.Close() })
	srvs := make([]*remote.Server, len(f.tables))
	for i := range srvs {
		srvs[i] = remote.NewServer(0)
	}
	attach(env, srvs)
	tx := env.Begin()
	rd, err := env.CreateRelation(tx, "orders", schema(), f.sm, f.attrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	r, err := env.OpenRelation(rd)
	if err != nil {
		t.Fatal(err)
	}
	return env, srvs, r
}

// TestRemoteIsTheOneShardCase pins what USING remote promises on top of
// the shared store: DDL, server-assigned keys, the named foreign table,
// and the message arithmetic of a staged write and a batched scan.
func TestRemoteIsTheOneShardCase(t *testing.T) {
	env, srvs, r := flavours[0].open(t, nil)
	srv := srvs[0]
	tx := env.Begin()
	if _, err := env.CreateRelation(tx, "x", schema(), "remote", nil); err == nil {
		t.Fatal("missing server attribute accepted")
	}
	if _, err := env.CreateRelation(tx, "x", schema(), "remote", core.AttrList{"server": "ghost"}); err == nil {
		t.Fatal("unattached server accepted")
	}
	before := srv.Messages.Load()
	k, err := r.Insert(tx, rec(0, "x"))
	if err != nil || len(k) != 8 {
		t.Fatalf("insert: key %v, %v (want a server-assigned 8-byte key)", k, err)
	}
	if n := srv.Messages.Load() - before; n != 1 {
		t.Fatalf("insert took %d round trips, want 1", n)
	}
	for i := 1; i < 250; i++ {
		if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	// Staged, not applied: another client of the foreign server sees
	// nothing until the commit decision arrives.
	other := remote.Dial(srv)
	defer other.Close()
	if n, err := other.Count("far_orders"); err != nil || n != 0 {
		t.Fatalf("foreign table holds %d records before commit (%v)", n, err)
	}
	before = srv.Messages.Load()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Messages.Load() - before; n != 2 {
		t.Fatalf("commit took %d round trips, want prepare + decision", n)
	}
	if n, _ := other.Count("far_orders"); n != 250 {
		t.Fatalf("foreign table holds %d records after commit", n)
	}
	// 250 records at 8 per batch: 31 full batches, and a short 32nd that
	// ends the scan without an empty terminator.
	before = srv.Messages.Load()
	if got := scanAll(t, env, r); len(got) != 250 {
		t.Fatalf("scanned %d", len(got))
	}
	if n := srv.Messages.Load() - before; n != 32 {
		t.Fatalf("scan took %d round trips, want 32", n)
	}
}

// TestRecoveryReplaysOntoFreshServers restarts over brand-new (empty)
// servers: replaying the local log restores the foreign contents.
func TestRecoveryReplaysOntoFreshServers(t *testing.T) {
	for _, f := range flavours {
		t.Run(f.sm, func(t *testing.T) {
			log := wal.New()
			env, _, r := f.open(t, log)
			tx := env.Begin()
			for i := 0; i < 20; i++ {
				if _, err := r.Insert(tx, rec(int64(i), "durable")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			env2 := core.NewEnv(core.Config{Log: log})
			defer env2.Close()
			fresh := make([]*remote.Server, len(f.tables))
			for i := range fresh {
				fresh[i] = remote.NewServer(0)
			}
			attach(env2, fresh)
			if err := env2.Recover(); err != nil {
				t.Fatal(err)
			}
			r2, err := env2.OpenRelationByName("orders")
			if err != nil {
				t.Fatal(err)
			}
			if n := r2.Storage().RecordCount(); n != 20 {
				t.Fatalf("recovered count = %d", n)
			}
		})
	}
}

// TestScanBatchBoundaryMutation pins the strictly-after refill contract.
// A cursor anchors every refill on the last key it returned; records
// mutated on the server between refills — including the anchor itself,
// deleted out from under the scan by another of the server's clients —
// must neither skip nor repeat anything the scan still owes. With several
// shards the boundary is one cursor's: the others hold read-ahead the
// mutations leave alone.
func TestScanBatchBoundaryMutation(t *testing.T) {
	for _, f := range flavours {
		t.Run(f.sm, func(t *testing.T) {
			env, srvs, r := f.open(t, nil)
			tx := env.Begin()
			for i := 0; i < 40*len(srvs); i++ {
				if _, err := r.Insert(tx, rec(int64(i), "x")); err != nil {
					t.Fatal(err)
				}
			}
			tx.Commit()

			// The first shard's table as its cursor will page through it.
			c := remote.Dial(srvs[0])
			defer c.Close()
			table := f.tables[0]
			entries, err := c.ScanBatch(0, table, nil, nil, 1000)
			if err != nil || len(entries) < 24 {
				t.Fatalf("shard 0 holds %d records (%v); the test needs three batches", len(entries), err)
			}
			var own []types.Key
			for _, e := range entries {
				own = append(own, types.Key(e.Key))
			}

			tx2 := env.Begin()
			scan, err := r.OpenScan(tx2, core.ScanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer scan.Close()
			var got []string
			vals := map[string]string{}
			read := func() (types.Key, bool) {
				k, g, ok, err := scan.Next()
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					got = append(got, string(k))
					vals[string(k)] = g[1].S
				}
				return k, ok
			}
			// Drain through the end of shard 0's first batch; its cursor's
			// next refill must anchor on own[7], the last record it returned.
			for {
				k, ok := read()
				if !ok {
					t.Fatal("scan ended inside the first batch")
				}
				if k.Equal(own[7]) {
					break
				}
			}
			want := append([]string(nil), got...)

			// Another client mutates around the boundary: the refill anchor
			// vanishes, the first not-yet-fetched record vanishes, a record
			// further on changes, and a new record lands past the end.
			if err := c.Delete(table, own[7]); err != nil {
				t.Fatal(err)
			}
			if err := c.Delete(table, own[8]); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Put(table, own[20], rec(20, "patched")); err != nil {
				t.Fatal(err)
			}
			late := append(own[len(own)-1].Clone(), 0xFF, 0xFF)
			if _, err := c.Put(table, late, rec(1000, "late")); err != nil {
				t.Fatal(err)
			}

			for {
				if _, ok := read(); !ok {
					break
				}
			}
			// What the scan still owed at the boundary is exactly what a fresh
			// scan finds after it now: own[8] gone, late present.
			for _, k := range scanAllKeys(t, env, r) {
				if k > want[len(want)-1] {
					want = append(want, k)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("scanned %d keys, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("position %d: got key %x, want %x", i, got[i], want[i])
				}
			}
			if vals[string(own[20])] != "patched" {
				t.Fatalf("patched record read %q", vals[string(own[20])])
			}
			tx2.Commit()
		})
	}
}

// scanAllKeys returns the relation's record keys in scan order.
func scanAllKeys(t *testing.T, env *core.Env, r *core.Relation) []string {
	t.Helper()
	tx := env.Begin()
	defer tx.Commit()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	var out []string
	for {
		k, _, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, string(k))
	}
}

// TestShardConnectionsAreReleased checks the storage instance's io.Closer:
// every shard connection holds a serve loop on its server, and dropping
// the relation or closing the environment must end them all. Closing a
// connection returns once its serve loop has, so remote.Server.Serving is
// exact the moment DROP, abort or Close returns.
func TestShardConnectionsAreReleased(t *testing.T) {
	for _, f := range flavours {
		env, srvs, r := f.open(t, nil)
		serving := func() (n int64) {
			for _, srv := range srvs {
				n += srv.Serving.Load()
			}
			return n
		}
		tx := env.Begin()
		if _, err := r.Insert(tx, rec(1, "x")); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if n := serving(); n != int64(len(f.tables)) {
			t.Fatalf("%s: %d connections with the relation open, want one per shard (%d)", f.sm, n, len(f.tables))
		}
		tx = env.Begin()
		if err := env.DropRelation(tx, "orders"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := serving(); n != 0 {
			t.Fatalf("%s: %d connections after DROP TABLE, want 0", f.sm, n)
		}
		// A transaction that staged writes still owes the shards its
		// decision when the relation goes away under it — its own CREATE
		// rolled back, or a DROP in the transaction that wrote: the
		// connections carry the decision first and are dropped after.
		create := func(tx *txn.Txn) *core.Relation {
			rd, err := env.CreateRelation(tx, "orders", schema(), f.sm, f.attrs)
			if err != nil {
				t.Fatal(err)
			}
			r, err := env.OpenRelation(rd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Insert(tx, rec(2, "y")); err != nil {
				t.Fatal(err)
			}
			return r
		}
		tx = env.Begin()
		create(tx)
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
		tx = env.Begin()
		create(tx)
		if err := env.DropRelation(tx, "orders"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if n := env.Obs.Part.AckLost.Load(); n != 0 || serving() != 0 {
			t.Fatalf("%s: %d decisions undelivered, %d connections (want 0) after abort of CREATE and write+DROP",
				f.sm, n, serving())
		}
		tx = env.Begin()
		create(tx)
		tx.Commit()
		if err := env.Close(); err != nil {
			t.Fatal(err)
		}
		if n := serving(); n != 0 {
			t.Fatalf("%s: %d connections after Env.Close, want 0", f.sm, n)
		}
	}
}

// TestRecoveryNeedsTheForeignServer recovers a remote relation whose
// server holds two prepared transactions: recovery without the server
// attached fails, and recovery with it resolves both from the log, the
// decided one committed and the undecided one aborted.
func TestRecoveryNeedsTheForeignServer(t *testing.T) {
	log := wal.New()
	env, srvs, _ := flavours[0].open(t, log)
	if err := env.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := env.Begin() // any transaction with a commit record past the checkpoint
	if _, err := env.CreateRelation(tx, "other", schema(), "remote", core.AttrList{"server": "s0"}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c := remote.Dial(srvs[0])
	defer c.Close()
	for _, id := range []uint64{uint64(tx.ID()), 1 << 40} { // decided commit; never decided
		if _, err := c.StagePut(id, "far_orders", nil, rec(int64(id), "staged")); err != nil {
			t.Fatal(err)
		}
		if err := c.Prepare(id); err != nil {
			t.Fatal(err)
		}
	}
	unattached := core.NewEnv(core.Config{Log: log})
	defer unattached.Close()
	if err := unattached.Recover(); err == nil || !strings.Contains(err.Error(), `no foreign server "s0"`) {
		t.Fatalf("recovery without the foreign server: %v", err)
	}
	if ids, _ := c.InDoubt(); len(ids) != 2 {
		t.Fatalf("in doubt after the failed recovery: %v, want both", ids)
	}
	env2 := core.NewEnv(core.Config{Log: log})
	defer env2.Close()
	attach(env2, srvs)
	if err := env2.Recover(); err != nil {
		t.Fatal(err)
	}
	r, err := env2.OpenRelationByName("orders")
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := c.InDoubt(); len(ids) != 0 || r.Storage().RecordCount() != 1 {
		t.Fatalf("after recovery: in doubt %v, %d records, want none and the committed one", ids, r.Storage().RecordCount())
	}
}

// TestStoredDescriptorFormats opens relations from descriptor bytes as
// logs written before remote and part shared a store hold them: SMID 6 is
// server, table, batch; SMID 8 is key columns, shard count, batch, servers.
func TestStoredDescriptorFormats(t *testing.T) {
	env := core.NewEnv(core.Config{})
	defer env.Close()
	attach(env, []*remote.Server{remote.NewServer(0), remote.NewServer(0)})
	for _, tc := range []struct {
		sm     core.SMID
		desc   []byte
		tables []string
	}{
		{core.SMRemote, []byte("\x02s1\x05far_t\x00\x05"), []string{"s1/far_t"}},
		{core.SMPart, []byte("\x01\x00\x00\x03\x00\x04\x02\x02s0\x02s1"), []string{"s0/t#0", "s1/t#1", "s0/t#2"}},
	} {
		rd := &core.RelDesc{RelID: uint32(100 + tc.sm), Name: "t", Schema: schema(), SM: tc.sm, SMDesc: tc.desc}
		inst, err := env.StorageInstance(rd)
		if err != nil {
			t.Fatalf("SMID %d: %v", tc.sm, err)
		}
		var got []string
		for _, info := range inst.(interface{ SysRows() []partsm.ShardInfo }).SysRows() {
			got = append(got, info.Server+"/"+info.Table)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.tables) {
			t.Fatalf("SMID %d: shards %v, want %v", tc.sm, got, tc.tables)
		}
		if _, err := env.StorageInstance(&core.RelDesc{RelID: uint32(200 + tc.sm), Name: "t", SM: tc.sm, SMDesc: tc.desc[:len(tc.desc)-1]}); err == nil {
			t.Fatalf("SMID %d: truncated descriptor accepted", tc.sm)
		}
	}
}
