// Package attutil is the attachment kit: everything the attachment types
// do alike. attutil.go has the per-instance definition lists stored in
// attachment descriptor fields and DDL column-list parsing; kit.go the
// registration and the def list an instance embeds; entries.go the logged
// entry maintenance, with the uniqueness rule, for the types that keep
// (entry key → record key) state, and the direct-by-key access path over
// one Multimap per instance.
//
// A single attachment descriptor field describes every instance of its
// type on the relation; instances carry a stable creation sequence number
// (Seq) so log records and in-memory state survive descriptor changes,
// while the planner-facing instance numbers are dense positions in the
// definition list.
package attutil

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"dmx/internal/core"
	"dmx/internal/types"
)

// IndexDef describes one instance of an index-like attachment.
type IndexDef struct {
	Seq    uint32 // stable instance identity
	Name   string
	Fields []int // indexed record fields, in key order
	Unique bool
	Extra  []byte // attachment-specific payload
}

func (d IndexDef) equal(o IndexDef) bool {
	return d.Seq == o.Seq && d.Name == o.Name && d.Unique == o.Unique &&
		slices.Equal(d.Fields, o.Fields) && bytes.Equal(d.Extra, o.Extra)
}

// EncodeDefs serialises a definition list into a descriptor field. The
// leading uint32 is the next unused Seq.
func EncodeDefs(nextSeq uint32, defs []IndexDef) []byte {
	out := binary.BigEndian.AppendUint32(nil, nextSeq)
	out = append(out, byte(len(defs)))
	for _, d := range defs {
		out = binary.BigEndian.AppendUint32(out, d.Seq)
		out = append(out, byte(len(d.Name)))
		out = append(out, d.Name...)
		out = append(out, byte(len(d.Fields)))
		for _, f := range d.Fields {
			out = binary.BigEndian.AppendUint16(out, uint16(f))
		}
		if d.Unique {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = binary.BigEndian.AppendUint16(out, uint16(len(d.Extra)))
		out = append(out, d.Extra...)
	}
	return out
}

// DecodeDefs reverses EncodeDefs.
func DecodeDefs(b []byte) (nextSeq uint32, defs []IndexDef, err error) {
	if len(b) < 5 {
		return 0, nil, fmt.Errorf("attutil: truncated definition list")
	}
	nextSeq = binary.BigEndian.Uint32(b)
	n := int(b[4])
	pos := 5
	for i := 0; i < n; i++ {
		var d IndexDef
		if len(b) < pos+5 {
			return 0, nil, fmt.Errorf("attutil: truncated definition %d", i)
		}
		d.Seq = binary.BigEndian.Uint32(b[pos:])
		nameLen := int(b[pos+4])
		pos += 5
		if len(b) < pos+nameLen+1 {
			return 0, nil, fmt.Errorf("attutil: truncated definition name %d", i)
		}
		d.Name = string(b[pos : pos+nameLen])
		pos += nameLen
		nf := int(b[pos])
		pos++
		if len(b) < pos+2*nf+3 {
			return 0, nil, fmt.Errorf("attutil: truncated definition fields %d", i)
		}
		for j := 0; j < nf; j++ {
			d.Fields = append(d.Fields, int(binary.BigEndian.Uint16(b[pos+2*j:])))
		}
		pos += 2 * nf
		d.Unique = b[pos] == 1
		pos++
		extraLen := int(binary.BigEndian.Uint16(b[pos:]))
		pos += 2
		if len(b) < pos+extraLen {
			return 0, nil, fmt.Errorf("attutil: truncated definition extra %d", i)
		}
		d.Extra = append([]byte(nil), b[pos:pos+extraLen]...)
		pos += extraLen
		defs = append(defs, d)
	}
	return nextSeq, defs, nil
}

// What the stored formats can carry: EncodeDefs writes the name, def and
// field counts in one byte each and the Extra length in two, and
// core.EntryPayload names an instance by the low 16 bits of its Seq.
const (
	maxNameLen  = 255
	maxDefs     = 255
	maxFields   = 255
	maxExtraLen = 1<<16 - 1
	maxSeq      = 1<<16 - 1
)

// AddDef appends a definition to a (possibly nil) prior descriptor field,
// assigning its Seq, and returns the new field value. Instance names must
// be unique within the type, and the definition must fit the stored
// formats.
func AddDef(prior []byte, d IndexDef) ([]byte, error) {
	nextSeq, defs := uint32(1), []IndexDef(nil)
	if prior != nil {
		var err error
		nextSeq, defs, err = DecodeDefs(prior)
		if err != nil {
			return nil, err
		}
	}
	for _, e := range defs {
		if strings.EqualFold(e.Name, d.Name) {
			return nil, fmt.Errorf("attutil: instance %q already exists", d.Name)
		}
	}
	switch {
	case len(d.Name) > maxNameLen:
		return nil, fmt.Errorf("attutil: instance name is %d bytes, the limit is %d", len(d.Name), maxNameLen)
	case len(defs) >= maxDefs:
		return nil, fmt.Errorf("attutil: the relation already has %d instances of this type", maxDefs)
	case len(d.Fields) > maxFields:
		return nil, fmt.Errorf("attutil: instance %q covers %d fields, the limit is %d", d.Name, len(d.Fields), maxFields)
	case len(d.Extra) > maxExtraLen:
		return nil, fmt.Errorf("attutil: instance %q needs %d descriptor bytes, the limit is %d", d.Name, len(d.Extra), maxExtraLen)
	case nextSeq > maxSeq:
		return nil, fmt.Errorf("attutil: the relation has used all %d instance numbers of this type", maxSeq)
	}
	d.Seq = nextSeq
	defs = append(defs, d)
	return EncodeDefs(nextSeq+1, defs), nil
}

// RemoveDef removes the named definition, returning the new field value.
// The field stays non-nil (an empty list) even when no instances remain:
// nextSeq must survive so a later AddDef cannot reuse a dropped Seq,
// whose in-memory state instances deliberately retain for abort-undo.
func RemoveDef(prior []byte, name string) ([]byte, error) {
	nextSeq, defs, err := DecodeDefs(prior)
	if err != nil {
		return nil, err
	}
	out := defs[:0]
	found := false
	for _, d := range defs {
		if strings.EqualFold(d.Name, name) {
			found = true
			continue
		}
		out = append(out, d)
	}
	if !found {
		return nil, fmt.Errorf("attutil: %w: instance %q", core.ErrNotFound, name)
	}
	return EncodeDefs(nextSeq, out), nil
}

// ParseColumns resolves the comma-separated column list in the attrs key
// "on" against the schema.
func ParseColumns(schema *types.Schema, attrs core.AttrList) ([]int, error) {
	spec, ok := attrs.Get("on")
	if !ok || spec == "" {
		return nil, fmt.Errorf("attutil: an on=col,... attribute is required")
	}
	var fields []int
	for _, name := range strings.Split(spec, ",") {
		i := schema.ColIndex(strings.TrimSpace(name))
		if i < 0 {
			return nil, fmt.Errorf("attutil: column %q not in schema", strings.TrimSpace(name))
		}
		fields = append(fields, i)
	}
	return fields, nil
}

// InstanceName returns the attrs key "name", or a generated default.
func InstanceName(attrs core.AttrList, prior []byte) string {
	if name, ok := attrs.Get("name"); ok && name != "" {
		return name
	}
	n := 0
	if prior != nil {
		if _, defs, err := DecodeDefs(prior); err == nil {
			n = len(defs)
		}
	}
	return fmt.Sprintf("ix%d", n+1)
}

// FieldsChanged reports whether any of the given fields differ between the
// two records — the test the paper says index update procedures should
// perform to skip maintenance when no indexed field changed.
func FieldsChanged(fields []int, oldRec, newRec types.Record) bool {
	for _, f := range fields {
		if f >= len(oldRec) || f >= len(newRec) || !types.Equal(oldRec[f], newRec[f]) {
			return true
		}
	}
	return false
}
