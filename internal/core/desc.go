package core

import (
	"encoding/binary"
	"fmt"

	"dmx/internal/types"
)

// RelDesc is the extensible relation descriptor: a record whose header
// holds the relation identity, schema, storage method identifier and
// storage method descriptor, and whose field N holds the descriptor for
// attachment type N (nil when no instances of that type exist on the
// relation). Each extension supplies and interprets the contents of its
// own descriptor field; the common system manages the composite.
//
// The common system fetches descriptors from the catalog at query
// compilation time and embeds them in bound query plans, so no catalog
// access is needed at run time; Version supports detecting stale plans.
type RelDesc struct {
	RelID   uint32
	Name    string
	Schema  *types.Schema
	SM      SMID
	SMDesc  []byte
	AttDesc [MaxAttachmentTypes][]byte
	Version uint64
}

// HasAttachment reports whether the relation has instances of type id.
func (rd *RelDesc) HasAttachment(id AttID) bool {
	return int(id) < len(rd.AttDesc) && rd.AttDesc[id] != nil
}

// AttachmentTypes returns the attachment type IDs with instances on the
// relation, in identifier order (the order attached procedures run in).
func (rd *RelDesc) AttachmentTypes() []AttID {
	var out []AttID
	for i := 1; i < MaxAttachmentTypes; i++ {
		if rd.AttDesc[i] != nil {
			out = append(out, AttID(i))
		}
	}
	return out
}

// Clone returns a deep copy (descriptor bytes copied). DDL operations
// mutate a clone and swap it into the catalog so bound plans holding the
// old descriptor are unaffected.
func (rd *RelDesc) Clone() *RelDesc {
	out := *rd
	out.SMDesc = append([]byte(nil), rd.SMDesc...)
	for i, d := range rd.AttDesc {
		if d != nil {
			out.AttDesc[i] = append([]byte(nil), d...)
		}
	}
	return &out
}

// AppendEncode appends the composite descriptor encoding to dst.
func (rd *RelDesc) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, rd.RelID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(rd.Name)))
	dst = append(dst, rd.Name...)
	dst = rd.Schema.AppendEncode(dst)
	dst = append(dst, byte(rd.SM))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rd.SMDesc)))
	dst = append(dst, rd.SMDesc...)
	dst = binary.BigEndian.AppendUint64(dst, rd.Version)
	// Non-present attachment fields cost two bytes each in the
	// record-oriented format (a present flag would be one; we spend a
	// uint16 length with sentinel 0xFFFF for NULL and escape 0xFFFE).
	for i := 1; i < MaxAttachmentTypes; i++ {
		d := rd.AttDesc[i]
		if d == nil {
			dst = binary.BigEndian.AppendUint16(dst, 0xFFFF)
			continue
		}
		if len(d) >= 0xFFFE {
			// Oversized attachment descriptors spill via a 4-byte length.
			dst = binary.BigEndian.AppendUint16(dst, 0xFFFE)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(d)))
		} else {
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(d)))
		}
		dst = append(dst, d...)
	}
	return dst
}

// DecodeRelDesc decodes a descriptor, returning it and bytes consumed.
func DecodeRelDesc(b []byte) (*RelDesc, int, error) {
	rd := &RelDesc{}
	if len(b) < 6 {
		return nil, 0, fmt.Errorf("core: truncated descriptor header")
	}
	rd.RelID = binary.BigEndian.Uint32(b)
	nameLen := int(binary.BigEndian.Uint16(b[4:]))
	pos := 6
	if len(b) < pos+nameLen {
		return nil, 0, fmt.Errorf("core: truncated descriptor name")
	}
	rd.Name = string(b[pos : pos+nameLen])
	pos += nameLen
	schema, n, err := types.DecodeSchema(b[pos:])
	if err != nil {
		return nil, 0, fmt.Errorf("core: descriptor schema: %w", err)
	}
	rd.Schema = schema
	pos += n
	if len(b) < pos+5 {
		return nil, 0, fmt.Errorf("core: truncated storage method header")
	}
	rd.SM = SMID(b[pos])
	smLen := int(binary.BigEndian.Uint32(b[pos+1:]))
	pos += 5
	if len(b) < pos+smLen {
		return nil, 0, fmt.Errorf("core: truncated storage method descriptor")
	}
	rd.SMDesc = append([]byte(nil), b[pos:pos+smLen]...)
	pos += smLen
	if len(b) < pos+8 {
		return nil, 0, fmt.Errorf("core: truncated descriptor version")
	}
	rd.Version = binary.BigEndian.Uint64(b[pos:])
	pos += 8
	for i := 1; i < MaxAttachmentTypes; i++ {
		if len(b) < pos+2 {
			return nil, 0, fmt.Errorf("core: truncated attachment field %d", i)
		}
		l := int(binary.BigEndian.Uint16(b[pos:]))
		pos += 2
		if l == 0xFFFF {
			continue // NULL field: no instances of type i
		}
		if l == 0xFFFE {
			if len(b) < pos+4 {
				return nil, 0, fmt.Errorf("core: truncated oversized attachment field %d", i)
			}
			l = int(binary.BigEndian.Uint32(b[pos:]))
			pos += 4
			if l < 0xFFFE {
				return nil, 0, fmt.Errorf("core: attachment field %d of %d bytes in the long form", i, l)
			}
		}
		if len(b) < pos+l {
			return nil, 0, fmt.Errorf("core: truncated attachment descriptor %d", i)
		}
		// A present-but-empty field must stay non-nil: presence is what
		// HasAttachment and the attached-procedure loop dispatch on.
		d := make([]byte, l)
		copy(d, b[pos:pos+l])
		rd.AttDesc[i] = d
		pos += l
	}
	return rd, pos, nil
}
