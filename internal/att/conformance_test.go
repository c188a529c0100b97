// Package att_test holds the attachment conformance suite: the contract of
// core.AttachmentOps and core.AttachmentInstance — and, for the access
// paths, core.AccessPath — run through core.Env and core.Relation against
// every registered attachment type. A new type adds one row to types10 and
// inherits every check below; what stays in its own package's tests is only
// what is particular to it.
package att_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dmx/internal/att/aggmv"
	"dmx/internal/att/attutil"
	_ "dmx/internal/att/btreeix"
	"dmx/internal/att/check"
	_ "dmx/internal/att/hashidx"
	_ "dmx/internal/att/joinidx"
	_ "dmx/internal/att/refint"
	"dmx/internal/att/rtreeix"
	"dmx/internal/att/stats"
	"dmx/internal/att/trigger"
	_ "dmx/internal/att/unique"
	"dmx/internal/core"
	"dmx/internal/expr"
	"dmx/internal/remote"
	"dmx/internal/rtree"
	_ "dmx/internal/sm/btreesm"
	_ "dmx/internal/sm/memsm"
	"dmx/internal/sm/partsm"
	"dmx/internal/txn"
	"dmx/internal/types"
	"dmx/internal/wal"
)

// The suite's relation t; every type is defined over these columns. note is
// covered by no attachment.
const (
	colID = iota
	colGrp
	colVal
	colBox
	colTag
	colNote
)

func schema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "grp", Kind: types.KindString},
		types.Column{Name: "val", Kind: types.KindInt},
		types.Column{Name: "box", Kind: types.KindBytes},
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "note", Kind: types.KindString},
	)
}

// row is one record of t in the making: grp "" is NULL, the box (NULL
// unless boxed) follows from id, tag defaults to t<id> and note to n<id>.
type row struct {
	id    int64
	grp   string
	val   int64
	boxed bool
	tag   string
	note  string
}

func boxOf(id int64) expr.Box {
	f := float64(id)
	return expr.NewBox(f, f, f+1, f+1)
}

func (r row) record() types.Record {
	grp, box, tag, note := types.Null(), types.Null(), r.tag, r.note
	if r.grp != "" {
		grp = types.Str(r.grp)
	}
	if r.boxed {
		box = boxOf(r.id).Value()
	}
	if tag == "" {
		tag = fmt.Sprintf("t%d", r.id)
	}
	if note == "" {
		note = fmt.Sprintf("n%d", r.id)
	}
	return types.Record{types.Int(r.id), grp, types.Int(r.val), box, types.Str(tag), types.Str(note)}
}

var base = []row{
	{id: 1, grp: "a", val: 10, boxed: true},
	{id: 2, grp: "a", val: 20, boxed: true},
	{id: 3, grp: "b", val: 30},
	{id: 4, grp: "c", val: 40, boxed: true},
	{id: 5, val: 50, boxed: true},
}

// groups is the probe domain of the grouped types: every grp of base, one
// that never occurs, and NULL.
var groups = []types.Value{types.Str("a"), types.Str("b"), types.Str("c"), types.Str("d"), types.Null()}

// world encloses every box the suite stores.
var world = expr.NewBox(-1000, -1000, 1000, 1000)

// stored is a record as the relation holds it.
type stored struct {
	key types.Key
	rec types.Record
}

// attType is one attachment type under test and what legitimately differs
// between types: how an instance is defined, how its state is read, and
// what that state must be for a given relation content.
type attType struct {
	name string
	id   core.AttID
	// attrs defines an instance named inst over the suite schema; alt, when
	// set, defines it differently (other columns).
	attrs, alt func(inst string) core.AttrList
	// required is an attribute attrs cannot do without ("" = none).
	required string
	// single: the type has at most one instance per relation.
	single bool
	// logs: a change to a covered field writes attachment log records.
	logs bool
	// probe renders the state of dense instance i, named d.Name, through
	// the type's readers or, for a constraint, by what it vetoes.
	probe func(f *fixture, i int, d attutil.IndexDef) string
	// want is what probe must show while t holds rows.
	want func(f *fixture, rows []stored) string
}

func named(attrs core.AttrList) func(string) core.AttrList {
	return func(inst string) core.AttrList {
		out := core.AttrList{"name": inst}
		for k, v := range attrs {
			out[k] = v
		}
		return out
	}
}

const enforced, absent = "enforced", "absent"

func wantEnforced(*fixture, []stored) string { return enforced }

// vetoProbe reads a constraint by its effect: poison must be vetoed by ext.
func vetoProbe(ext string, poison row) func(*fixture, int, attutil.IndexDef) string {
	return func(f *fixture, _ int, _ attutil.IndexDef) string {
		if f.vetoes(ext, poison) {
			return enforced
		}
		return absent
	}
}

var types10 = []attType{
	{
		name: "btree", id: core.AttBTree, required: "on", logs: true,
		attrs: named(core.AttrList{"on": "grp"}), alt: named(core.AttrList{"on": "id"}),
		probe: func(f *fixture, i int, _ attutil.IndexDef) string {
			var out []string
			f.inTx(func(tx *txn.Txn, r *core.Relation) {
				sc, err := r.OpenAccessScan(tx, core.AttBTree, i, core.ScanOptions{})
				f.must(err)
				for _, e := range f.drain(sc) {
					out = append(out, fmt.Sprintf("%v>%x", e.rec[0], e.key))
				}
			})
			return strings.Join(out, " ")
		},
		want: func(_ *fixture, rows []stored) string {
			sort.Slice(rows, func(i, j int) bool {
				a := append(types.EncodeKeyFields(rows[i].rec, []int{colGrp}), rows[i].key...)
				b := append(types.EncodeKeyFields(rows[j].rec, []int{colGrp}), rows[j].key...)
				return a.Compare(b) < 0
			})
			var out []string
			for _, s := range rows {
				out = append(out, fmt.Sprintf("%v>%x", s.rec[colGrp], s.key))
			}
			return strings.Join(out, " ")
		},
	},
	{
		name: "hash", id: core.AttHash, required: "on", logs: true,
		attrs: named(core.AttrList{"on": "grp"}), alt: named(core.AttrList{"on": "id"}),
		probe: bucketProbe(core.AttHash), want: bucketWant(true),
	},
	{
		name: "rtree", id: core.AttRTree, required: "on", logs: true,
		attrs: named(core.AttrList{"on": "box"}),
		probe: func(f *fixture, i int, _ attutil.IndexDef) string {
			var keys []types.Key
			f.inTx(func(tx *txn.Txn, r *core.Relation) {
				var err error
				keys, err = r.LookupAccess(tx, core.AttRTree, i, types.Key(world.Value().B))
				f.must(err)
			})
			return keyList(keys)
		},
		want: func(_ *fixture, rows []stored) string {
			var keys []types.Key
			for _, s := range rows {
				if !s.rec[colBox].IsNull() {
					keys = append(keys, s.key)
				}
			}
			return keyList(keys)
		},
	},
	{
		name: "joinindex", id: core.AttJoin, required: "peer", logs: true,
		attrs: named(core.AttrList{"on": "grp", "peer": "peer"}), alt: named(core.AttrList{"on": "id", "peer": "peer"}),
		// A record whose join value is NULL has no entry.
		probe: bucketProbe(core.AttJoin), want: bucketWant(false),
	},
	{
		name: "check", id: core.AttCheck, required: "predicate",
		attrs: named(core.AttrList{"predicate": "nonneg"}),
		probe: vetoProbe("check", row{id: 99, grp: "a", val: -1}),
		want:  wantEnforced,
	},
	{
		name: "refint", id: core.AttRefInt, required: "peerkey",
		attrs: named(core.AttrList{"role": "child", "on": "grp", "peer": "peer", "peerkey": "grp"}),
		probe: vetoProbe("refint", row{id: 99, grp: "orphan", val: 1}),
		want:  wantEnforced,
	},
	{
		name: "trigger", id: core.AttTrigger, required: "call",
		attrs: named(core.AttrList{"call": "guard"}),
		probe: vetoProbe("trigger", row{id: 99, grp: "a", val: guardedVal}),
		want:  wantEnforced,
	},
	{
		name: "stats", id: core.AttStats, single: true,
		attrs: func(string) core.AttrList { return nil },
		probe: func(f *fixture, _ int, _ attutil.IndexDef) string {
			return fmt.Sprintf("rows=%d", f.instance(core.AttStats).(*stats.Instance).Snapshot().Count)
		},
		want: func(_ *fixture, rows []stored) string { return fmt.Sprintf("rows=%d", len(rows)) },
	},
	{
		name: "aggregate", id: core.AttAggMV, required: "value", logs: true,
		attrs: named(core.AttrList{"group": "grp", "value": "val"}), alt: named(core.AttrList{"value": "id"}),
		probe: func(f *fixture, _ int, d attutil.IndexDef) string {
			var out []string
			for _, g := range groups {
				sum, count, err := f.instance(core.AttAggMV).(*aggmv.Instance).Lookup(d.Name, g)
				f.must(err)
				out = append(out, fmt.Sprintf("%v:%v/%d", g, sum, count))
			}
			return strings.Join(out, " ")
		},
		want: func(_ *fixture, rows []stored) string {
			var out []string
			for _, g := range groups {
				sum, count := 0.0, 0
				for _, s := range rows {
					if types.Equal(s.rec[colGrp], g) {
						sum, count = sum+s.rec[colVal].AsFloat(), count+1
					}
				}
				out = append(out, fmt.Sprintf("%v:%v/%d", g, sum, count))
			}
			return strings.Join(out, " ")
		},
	},
	{
		name: "unique", id: core.AttUnique, required: "on", logs: true,
		attrs: named(core.AttrList{"on": "tag"}), alt: named(core.AttrList{"on": "id"}),
		// The set has no reader: a tag is taken when inserting it again is
		// vetoed.
		probe: func(f *fixture, _ int, _ attutil.IndexDef) string {
			var taken []string
			for n := int64(1); n <= 12; n++ {
				tag := fmt.Sprintf("t%d", n)
				if f.vetoes("unique", row{id: 100 + n, grp: "a", val: 1, tag: tag}) {
					taken = append(taken, tag)
				}
			}
			sort.Strings(taken)
			return fmt.Sprint(taken)
		},
		want: func(_ *fixture, rows []stored) string {
			var taken []string
			for _, s := range rows {
				taken = append(taken, s.rec[colTag].S)
			}
			sort.Strings(taken)
			return fmt.Sprint(taken)
		},
	},
}

// bucketProbe reads a bucket table by looking up every group.
func bucketProbe(id core.AttID) func(*fixture, int, attutil.IndexDef) string {
	return func(f *fixture, i int, _ attutil.IndexDef) string {
		var out []string
		f.inTx(func(tx *txn.Txn, r *core.Relation) {
			for _, g := range groups {
				keys, err := r.LookupAccess(tx, id, i, types.EncodeKeyValues(g))
				f.must(err)
				out = append(out, fmt.Sprintf("%v=%s", g, keyList(keys)))
			}
		})
		return strings.Join(out, " ")
	}
}

// bucketWant is what bucketProbe must show: each group's record keys, and
// for NULL those of the records without a grp when nulls are filed.
func bucketWant(nulls bool) func(*fixture, []stored) string {
	return func(_ *fixture, rows []stored) string {
		var out []string
		for _, g := range groups {
			var keys []types.Key
			for _, s := range rows {
				if types.Equal(s.rec[colGrp], g) && (nulls || !g.IsNull()) {
					keys = append(keys, s.key)
				}
			}
			out = append(out, fmt.Sprintf("%v=%s", g, keyList(keys)))
		}
		return strings.Join(out, " ")
	}
}

func byName(name string) attType {
	for _, at := range types10 {
		if at.name == name {
			return at
		}
	}
	panic("no attachment type " + name + " in the conformance table")
}

func keyList(keys []types.Key) string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%x", k)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

func TestEveryAttachmentTypeIsCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, at := range types10 {
		covered[at.name] = true
	}
	names := core.DefaultRegistry.AttachmentNames()
	for _, name := range names {
		if !covered[name] {
			t.Errorf("attachment type %q is registered but not in the conformance table", name)
		}
	}
	if len(names) != len(types10) {
		t.Errorf("%d types registered, %d in the conformance table", len(names), len(types10))
	}
}

// guardedVal is the val the suite's trigger function refuses.
const guardedVal = 666

func init() {
	check.RegisterPredicate("nonneg", expr.Ge(expr.Field(colVal), expr.Const(types.Int(0))))
}

// fixture is one environment holding t, empty, and its peer relation
// (id, grp): two rows of group a, one each of b and c. A remote t lives on
// the foreign server srv, attached as "fed"; it outlives a restart.
type fixture struct {
	t   *testing.T
	env *core.Env
	log *wal.Log
	srv *remote.Server
}

func newEnv(t *testing.T, log *wal.Log, srv *remote.Server) *fixture {
	f := &fixture{t: t, env: core.NewEnv(core.Config{Log: log}), log: log, srv: srv}
	t.Cleanup(func() { f.env.Close() })
	if srv != nil {
		partsm.AttachServer(f.env, "fed", srv)
	}
	trigger.Register(f.env, "guard", func(_ *core.Env, _ *txn.Txn, _ trigger.Event, _ *core.RelDesc, _ types.Key, _, newRec types.Record) error {
		if newRec != nil && newRec[colVal].I == guardedVal {
			return errors.New("guarded value")
		}
		return nil
	})
	return f
}

// newFixture creates t with storage method sm.
func newFixture(t *testing.T, log *wal.Log, sm string, smAttrs core.AttrList) *fixture {
	var srv *remote.Server
	if sm == partsm.RemoteName {
		srv = remote.NewServer(0)
	}
	f := newEnv(t, log, srv)
	tx := f.env.Begin()
	_, err := f.env.CreateRelation(tx, "t", schema(), sm, smAttrs)
	f.must(err)
	peerSchema := types.MustSchema(
		types.Column{Name: "id", Kind: types.KindInt, NotNull: true},
		types.Column{Name: "grp", Kind: types.KindString},
	)
	_, err = f.env.CreateRelation(tx, "peer", peerSchema, "memory", nil)
	f.must(err)
	peer, err := f.env.OpenRelationByName("peer")
	f.must(err)
	for i, g := range []string{"a", "a", "b", "c"} {
		_, err := peer.Insert(tx, types.Record{types.Int(int64(i + 1)), types.Str(g)})
		f.must(err)
	}
	f.must(tx.Commit())
	return f
}

// restart recovers a second environment from the first one's log.
func (f *fixture) restart() *fixture {
	g := newEnv(f.t, f.log, f.srv)
	g.must(g.env.Recover())
	return g
}

func (f *fixture) must(err error) {
	f.t.Helper()
	if err != nil {
		f.t.Fatal(err)
	}
}

func (f *fixture) rel() *core.Relation {
	r, err := f.env.OpenRelationByName("t")
	f.must(err)
	return r
}

// inTx runs fn against t in one committed transaction.
func (f *fixture) inTx(fn func(tx *txn.Txn, r *core.Relation)) {
	tx := f.env.Begin()
	fn(tx, f.rel())
	f.must(tx.Commit())
}

func (f *fixture) insert(rows ...row) {
	f.inTx(func(tx *txn.Txn, r *core.Relation) {
		for _, w := range rows {
			_, err := r.Insert(tx, w.record())
			f.must(err)
		}
	})
}

func (f *fixture) drain(sc core.Scan) []stored {
	var out []stored
	for {
		k, r, ok, err := sc.Next()
		f.must(err)
		if !ok {
			f.must(sc.Close())
			return out
		}
		out = append(out, stored{k, r})
	}
}

// contents is the named relation as its storage method holds it: the
// reference every attachment's state is judged against.
func (f *fixture) contents(name string) []stored {
	r, err := f.env.OpenRelationByName(name)
	f.must(err)
	tx := f.env.Begin()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	f.must(err)
	out := f.drain(sc)
	f.must(tx.Commit())
	return out
}

// keyOf finds, inside tx, the key of t's record with the given id.
func (f *fixture) keyOf(tx *txn.Txn, r *core.Relation, id int64) types.Key {
	f.t.Helper()
	sc, err := r.OpenScan(tx, core.ScanOptions{})
	f.must(err)
	for _, s := range f.drain(sc) {
		if s.rec[colID].I == id {
			return s.key
		}
	}
	f.t.Fatalf("no record with id %d", id)
	return nil
}

func (f *fixture) update(tx *txn.Txn, r *core.Relation, id int64, to row) error {
	_, err := r.Update(tx, f.keyOf(tx, r, id), to.record())
	return err
}

// remove deletes the record with the given id in its own transaction.
func (f *fixture) remove(id int64) {
	f.inTx(func(tx *txn.Txn, r *core.Relation) { f.must(r.Delete(tx, f.keyOf(tx, r, id))) })
}

// vetoes reports whether inserting w is vetoed — by extension ext, or the
// test fails. The insert is rolled back either way.
func (f *fixture) vetoes(ext string, w row) bool {
	tx := f.env.Begin()
	defer tx.Abort()
	_, err := f.rel().Insert(tx, w.record())
	var ve *core.VetoError
	if errors.As(err, &ve) {
		if ve.Extension != ext {
			f.t.Fatalf("probe row vetoed by %s, not %s: %v", ve.Extension, ext, err)
		}
		return true
	}
	f.must(err)
	return false
}

func (f *fixture) createOn(rel, typ string, attrs core.AttrList) *core.RelDesc {
	tx := f.env.Begin()
	rd, err := f.env.CreateAttachment(tx, rel, typ, attrs)
	f.must(err)
	f.must(tx.Commit())
	return rd
}

func (f *fixture) create(typ string, attrs core.AttrList) *core.RelDesc {
	return f.createOn("t", typ, attrs)
}

// add creates instance inst of at on t.
func (f *fixture) add(at attType, inst string) {
	f.create(at.name, at.attrs(inst))
}

func (f *fixture) drop(at attType, attrs core.AttrList) {
	tx := f.env.Begin()
	_, err := f.env.DropAttachment(tx, "t", at.name, attrs)
	f.must(err)
	f.must(tx.Commit())
}

func (f *fixture) instance(id core.AttID) core.AttachmentInstance {
	inst, err := f.env.AttachmentInstance(f.rel().Desc(), id)
	f.must(err)
	return inst
}

// defs is at's def list in t's current descriptor.
func (f *fixture) defs(at attType) []attutil.IndexDef {
	field := f.rel().Desc().AttDesc[at.id]
	if field == nil {
		return nil
	}
	_, defs, err := attutil.DecodeDefs(field)
	f.must(err)
	return defs
}

// exact fails unless every instance of at shows the state t's contents call
// for.
func (f *fixture) exact(at attType, when string) {
	f.t.Helper()
	defs := f.defs(at)
	if len(defs) == 0 {
		f.t.Fatalf("%s: no %s instance to read", when, at.name)
	}
	want := at.want(f, f.contents("t"))
	for i, d := range defs {
		if got := at.probe(f, i, d); got != want {
			f.t.Fatalf("%s: %s instance %d (%s):\n got %s\nwant %s", when, at.name, i, d.Name, got, want)
		}
	}
}

// logged counts at's log records for t.
func (f *fixture) logged(at attType) int {
	n := 0
	for _, rec := range f.log.Records() {
		if rec.Owner.Class == wal.OwnerAttachment && rec.Owner.ExtID == uint8(at.id) && rec.Owner.RelID == f.rel().Desc().RelID {
			n++
		}
	}
	return n
}

func TestAttachmentConformance(t *testing.T) {
	for _, at := range types10 {
		t.Run(at.name, func(t *testing.T) {
			t.Run("attrs", at.testAttrs)
			t.Run("build", at.testBuild)
			t.Run("second-instance", at.testSecondInstance)
			t.Run("drop-recreate", at.testDropRecreate)
			t.Run("unchanged-update", at.testUnchangedUpdate)
			t.Run("key-move", at.testKeyMove)
			t.Run("veto", at.testVeto)
			t.Run("rollback", at.testRollback)
			t.Run("aborted-create", at.testAbortedCreate)
			t.Run("aborted-drop", at.testAbortedDrop)
			t.Run("restart", at.testRestart)
		})
	}
}

// testAttrs: an attribute the type does not know, and a definition missing
// one it needs, are refused and leave no instance behind.
func (at attType) testAttrs(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	refused := func(attrs core.AttrList, what string) {
		tx := f.env.Begin()
		if _, err := f.env.CreateAttachment(tx, "t", at.name, attrs); err == nil {
			t.Errorf("%s accepted", what)
		}
		f.must(tx.Abort())
	}
	unknown := named(at.attrs("i1"))("i1") // a copy that is never nil
	unknown["colour"] = "blue"
	refused(unknown, "unknown attribute colour")
	if at.required != "" {
		missing := at.attrs("i1")
		delete(missing, at.required)
		refused(missing, "definition without "+at.required)
	}
	if defs := f.defs(at); len(defs) != 0 {
		t.Fatalf("refused definitions left %v", defs)
	}
}

// testBuild: an instance created over a loaded relation is populated from
// it, once.
func (at attType) testBuild(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	f.exact(at, "after create")
}

// testSecondInstance: creating another instance — or another type's —
// populates only the new one; the first neither doubles its entries nor
// loses them, which the delete afterwards would show.
func (at attType) testSecondInstance(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	f.add(at, "i2")
	if n := len(f.defs(at)); at.single && n != 1 || !at.single && n != 2 {
		t.Fatalf("%d instances after the second create", n)
	}
	f.exact(at, "after second create")
	other := "hash"
	if at.name == other {
		other = "btree"
	}
	f.create(other, core.AttrList{"on": "id"})
	f.exact(at, "after creating a "+other+" index")
	f.remove(2)
	f.exact(at, "after delete")
}

// testDropRecreate: dropping one instance by name leaves the others exact;
// dropping all and creating again starts from the relation's contents, not
// from what the dropped instances held, and never reuses a Seq.
func (at attType) testDropRecreate(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	maxSeq := f.defs(at)[0].Seq
	if !at.single {
		f.add(at, "i2")
		maxSeq = f.defs(at)[1].Seq
		f.drop(at, core.AttrList{"name": "i1"})
		if defs := f.defs(at); len(defs) != 1 || defs[0].Name != "i2" {
			t.Fatalf("after drop by name: %v", defs)
		}
		f.insert(row{id: 6, grp: "b", val: 60, boxed: true})
		f.exact(at, "after drop by name")
	}
	f.drop(at, nil)
	if defs := f.defs(at); len(defs) != 0 {
		t.Fatalf("after drop all: %v", defs)
	}
	f.insert(row{id: 7, grp: "c", val: 70})
	f.remove(1)
	f.add(at, "i3")
	f.exact(at, "after recreate")
	if seq := f.defs(at)[0].Seq; seq <= maxSeq {
		t.Fatalf("recreated instance has Seq %d; Seqs up to %d were in use", seq, maxSeq)
	}
}

// testUnchangedUpdate: an update that changes no covered field writes no
// attachment log record; one that changes them all keeps the state exact.
func (at attType) testUnchangedUpdate(t *testing.T) {
	f := newFixture(t, wal.New(), "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	before := f.logged(at)
	f.inTx(func(tx *txn.Txn, r *core.Relation) {
		w := base[0]
		w.note = "edited"
		f.must(f.update(tx, r, 1, w))
	})
	if n := f.logged(at) - before; n != 0 {
		t.Fatalf("an update of an uncovered column wrote %d %s log records", n, at.name)
	}
	f.exact(at, "after uncovered update")
	f.inTx(func(tx *txn.Txn, r *core.Relation) {
		f.must(f.update(tx, r, 1, row{id: 1, grp: "b", val: 11}))
		f.must(f.update(tx, r, 1, row{id: 9, grp: "b", val: 11}))
	})
	if at.logs && f.logged(at) == before {
		t.Fatalf("updates of the covered columns wrote no %s log record", at.name)
	}
	f.exact(at, "after covered update")
}

// testKeyMove: on a key-organised relation an update of the key column
// moves the record; entries follow it to the new record key.
func (at attType) testKeyMove(t *testing.T) {
	f := newFixture(t, nil, "btree", core.AttrList{"key": "id"})
	f.insert(base...)
	f.add(at, "i1")
	f.inTx(func(tx *txn.Txn, r *core.Relation) {
		old := f.keyOf(tx, r, 2)
		w := base[1]
		w.id = 8
		w.tag = "t2"
		f.must(f.update(tx, r, 2, w))
		if f.keyOf(tx, r, 8).Equal(old) {
			t.Fatal("the update did not move the record")
		}
	})
	f.exact(at, "after key-moving update")
}

// testVeto: when a later attached procedure vetoes a modification, the
// effects the earlier ones already had are undone. The vetoer is a
// uniqueness constraint on note: the last type notified, and for unique
// itself a second instance behind the one under test.
func (at attType) testVeto(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	f.create("unique", core.AttrList{"name": "vt", "on": "note"})
	want := at.want(f, f.contents("t"))
	vetoed := func(err error, what string) {
		var ve *core.VetoError
		if !errors.As(err, &ve) || ve.Extension != "unique" {
			t.Fatalf("%s: want a unique veto, got %v", what, err)
		}
		if got := at.probe(f, 0, f.defs(at)[0]); got != want {
			t.Fatalf("after vetoed %s:\n got %s\nwant %s", what, got, want)
		}
	}
	tx := f.env.Begin()
	_, err := f.rel().Insert(tx, row{id: 7, grp: "b", val: 70, boxed: true, note: "n1"}.record())
	f.must(tx.Commit())
	vetoed(err, "insert")
	tx = f.env.Begin()
	err = f.update(tx, f.rel(), 2, row{id: 8, grp: "c", val: 21, note: "n1"})
	f.must(tx.Commit())
	vetoed(err, "update")
}

// testRollback: partial rollback to a savepoint and abort both restore the
// state, through the attachment's logged undo.
func (at attType) testRollback(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	churn := func(tx *txn.Txn, r *core.Relation, id int64) {
		_, err := r.Insert(tx, row{id: id, grp: "c", val: id, boxed: true}.record())
		f.must(err)
		f.must(f.update(tx, r, 1, row{id: 1, grp: "c", val: id}))
		f.must(r.Delete(tx, f.keyOf(tx, r, id-5)))
	}
	tx := f.env.Begin()
	churn(tx, f.rel(), 7)
	_, err := tx.Savepoint("sp")
	f.must(err)
	churn(tx, f.rel(), 8)
	f.must(tx.RollbackTo("sp"))
	f.must(tx.Commit())
	if n := len(f.contents("t")); n != len(base) {
		t.Fatalf("%d records after the partial rollback, want %d", n, len(base))
	}
	f.exact(at, "after partial rollback")
	tx = f.env.Begin()
	churn(tx, f.rel(), 9)
	f.must(tx.Abort())
	f.exact(at, "after abort")
}

// testAbortedCreate: a rolled-back CREATE ATTACHMENT unwinds its build, and
// the next create — which is handed the same Seq — starts clean even when
// it defines the instance differently.
func (at attType) testAbortedCreate(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	attrs := at.alt
	if attrs == nil {
		attrs = at.attrs
	}
	tx := f.env.Begin()
	_, err := f.env.CreateAttachment(tx, "t", at.name, attrs("i1"))
	f.must(err)
	f.must(tx.Abort())
	if defs := f.defs(at); len(defs) != 0 {
		t.Fatalf("aborted create left %v", defs)
	}
	f.create(at.name, at.attrs("i1"))
	f.exact(at, "after create following an aborted one")
	f.remove(4)
	f.exact(at, "after delete")
}

// testAbortedDrop: a rolled-back DROP ATTACHMENT, with a write after it in
// the same transaction, brings the dropped instance back. The undo moves the
// descriptor to a lower version, and the cached instance must follow it
// down rather than keep the newer, dropped view.
func (at attType) testAbortedDrop(t *testing.T) {
	f := newFixture(t, nil, "memory", nil)
	f.insert(base...)
	f.add(at, "i1")
	which := core.AttrList{"name": "i1"}
	if at.single {
		which = nil
	} else {
		f.add(at, "i2")
	}
	tx := f.env.Begin()
	_, err := f.env.DropAttachment(tx, "t", at.name, which)
	f.must(err)
	_, err = f.rel().Insert(tx, row{id: 6, grp: "b", val: 60, boxed: true}.record())
	f.must(err)
	f.must(tx.Abort())
	f.exact(at, "after aborted drop")
	f.insert(row{id: 7, grp: "c", val: 70, boxed: true})
	f.exact(at, "after an insert following the aborted drop")
}

// testRestart: restart recovery brings the instance back to the state the
// recovered relation calls for, and maintenance carries on from there. A
// checkpoint midway truncates the log records of the history before it,
// over a relation whose contents the checkpoint holds (memory) and over
// one whose contents stay on their foreign server (remote).
func (at attType) testRestart(t *testing.T) {
	for _, sm := range []struct {
		name  string
		attrs core.AttrList
	}{{"memory", nil}, {partsm.RemoteName, core.AttrList{"server": "fed"}}} {
		t.Run(sm.name, func(t *testing.T) {
			f := newFixture(t, wal.New(), sm.name, sm.attrs)
			f.add(at, "i1")
			f.insert(base...)
			f.must(f.env.Checkpoint())
			f.inTx(func(tx *txn.Txn, r *core.Relation) {
				f.must(f.update(tx, r, 3, row{id: 3, grp: "a", val: 31, boxed: true}))
				f.must(r.Delete(tx, f.keyOf(tx, r, 4)))
			})
			tx := f.env.Begin()
			_, err := f.rel().Insert(tx, row{id: 6, grp: "b", val: 60}.record())
			f.must(err)
			f.must(tx.Abort())
			want := at.want(f, f.contents("t"))

			g := f.restart()
			if got := at.want(g, g.contents("t")); got != want {
				t.Fatalf("the relation itself changed across restart:\n got %s\nwant %s", got, want)
			}
			g.exact(at, "after restart")
			g.insert(row{id: 7, grp: "c", val: 70, boxed: true})
			g.remove(1)
			g.exact(at, "after modifications following restart")
		})
	}
}

// TestAccessPathConformance: for the four access paths, direct-by-key and
// key-sequential access agree with a filtered scan of the relation, and the
// type's own scan, once closed, refuses Next and Restore.
func TestAccessPathConformance(t *testing.T) {
	grpA := types.EncodeKeyValues(types.Str("a"))
	query := expr.NewBox(0, 0, 2.5, 2.5) // overlaps the boxes of ids 1 and 2
	for _, tc := range []struct {
		typ    string
		key    types.Key // LookupByKey argument
		filter *expr.Expr
		scan   *core.ScanOptions // nil: the path offers no key-sequential access
	}{
		{"btree", grpA, expr.Eq(expr.Field(colGrp), expr.Const(types.Str("a"))),
			&core.ScanOptions{Start: grpA, End: types.EncodeKeyValues(types.Str("b"))}},
		{"hash", grpA, expr.Eq(expr.Field(colGrp), expr.Const(types.Str("a"))), nil},
		{"joinindex", grpA, expr.Eq(expr.Field(colGrp), expr.Const(types.Str("a"))), nil},
		{"rtree", types.Key(query.Value().B), expr.Overlaps(expr.Field(colBox), expr.Const(query.Value())),
			&core.ScanOptions{Start: types.Key(query.Value().B), End: rtreeix.ModeKey(rtree.Overlaps)}},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			at := byName(tc.typ)
			f := newFixture(t, nil, "memory", nil)
			f.insert(base...)
			f.add(at, "i1")
			var want []types.Key
			f.inTx(func(tx *txn.Txn, r *core.Relation) {
				sc, err := r.OpenScan(tx, core.ScanOptions{Filter: tc.filter})
				f.must(err)
				for _, s := range f.drain(sc) {
					want = append(want, s.key)
				}
			})
			if len(want) != 2 {
				t.Fatalf("the filtered scan found %d records, want 2", len(want))
			}
			f.inTx(func(tx *txn.Txn, r *core.Relation) {
				keys, err := r.LookupAccess(tx, at.id, 0, tc.key)
				f.must(err)
				if keyList(keys) != keyList(want) {
					t.Fatalf("LookupByKey: %s, filtered scan: %s", keyList(keys), keyList(want))
				}
				if _, err := r.LookupAccess(tx, at.id, 1, tc.key); err == nil {
					t.Fatal("LookupByKey on an instance that does not exist accepted")
				}
			})
			path := f.instance(at.id).(core.AccessPath)
			tx := f.env.Begin()
			defer tx.Commit()
			if tc.scan == nil {
				if _, err := path.OpenScan(tx, 0, core.ScanOptions{}); err == nil {
					t.Fatal("a direct-by-key path opened a key-sequential access")
				}
				return
			}
			sc, err := path.OpenScan(tx, 0, *tc.scan)
			f.must(err)
			k, _, ok, err := sc.Next()
			f.must(err)
			if !ok {
				t.Fatal("OpenScan: no entries")
			}
			pos := sc.Pos()
			got := []types.Key{k}
			for {
				k, _, ok, err := sc.Next()
				f.must(err)
				if !ok {
					break
				}
				got = append(got, k)
			}
			if keyList(got) != keyList(want) {
				t.Fatalf("OpenScan: %s, filtered scan: %s", keyList(got), keyList(want))
			}
			f.must(sc.Restore(pos))
			if k, _, ok, err := sc.Next(); err != nil || !ok || !k.Equal(got[1]) {
				t.Fatalf("after Restore: %x %v %v, want %x", k, ok, err, got[1])
			}
			if err := sc.Restore(core.ScanPos{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
				t.Fatal("Restore to a position no scan of this path produced accepted")
			}
			f.must(sc.Close())
			if err := sc.Restore(pos); err == nil {
				t.Fatal("Restore on a closed scan accepted")
			}
			if _, _, _, err := sc.Next(); err == nil {
				t.Fatal("Next on a closed scan accepted")
			}
		})
	}
	// Between two Next calls of a btree scan, the transaction inserts an
	// entry between the position and the next entry and deletes the entry
	// after that: the rest of the scan is what a fresh scan holds past the
	// position.
	t.Run("btree/scan-ahead-mutation", func(t *testing.T) {
		f := newFixture(t, nil, "memory", nil)
		f.insert(base...)
		f.add(byName("btree"), "i1")
		f.inTx(func(tx *txn.Txn, r *core.Relation) {
			from := core.ScanOptions{Start: grpA}
			sc, err := r.OpenAccessScan(tx, core.AttBTree, 0, from)
			f.must(err)
			for i := 0; i < 2; i++ { // on (a, id 2); (b, id 3) is next
				_, _, ok, err := sc.Next()
				f.must(err)
				if !ok {
					t.Fatal("the scan ended early")
				}
			}
			_, err = r.Insert(tx, row{id: 6, grp: "ab"}.record())
			f.must(err)
			fresh, err := r.OpenAccessScan(tx, core.AttBTree, 0, from)
			f.must(err)
			ahead := f.drain(fresh)[2:]
			if len(ahead) < 2 || ahead[0].rec[0].S != "ab" {
				t.Fatalf("entries past the position: %v, want (ab, id 6) first", ahead)
			}
			f.must(r.Delete(tx, ahead[1].key))
			fresh, err = r.OpenAccessScan(tx, core.AttBTree, 0, from)
			f.must(err)
			want := f.drain(fresh)[2:]
			if got := f.drain(sc); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("scan after changes ahead of its position returned %v, want %v", got, want)
			}
		})
	})
}
