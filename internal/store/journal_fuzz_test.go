package store

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pgridfile/internal/geom"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal reader replay trusts.
// It must never panic; every record it returns must re-encode, through the
// writer's own appendJournalRec, to exactly the bytes it was read from (so
// nothing the writer could not have produced is ever replayed), and their LSNs
// must strictly increase (the writer appends in LSN order, so a repeated record
// is not a second operation); and a journal of whole records followed by a
// torn one — both built from the input — must read back as exactly the whole
// records before the first that does not raise the LSN. The second argument is
// the journal's dimensionality less one. The seeds here are what the writer
// produces; the committed corpus under testdata/fuzz holds the hostile ones
// (fields the writer never emits behind a valid CRC).
func FuzzJournalReplay(f *testing.F) {
	two := appendJournalRec(appendJournalRec(nil, 7, journalOpInsert, geom.Point{1.5, -2}), 8, journalOpDelete, geom.Point{1.5, -2})
	f.Add([]byte{}, uint8(1))
	f.Add(two, uint8(1))
	f.Add(two[:len(two)-3], uint8(1))                                               // torn tail
	f.Add(appendJournalRec(two, 8, journalOpDelete, geom.Point{1.5, -2}), uint8(1)) // a repeated record

	f.Fuzz(func(t *testing.T, data []byte, dimsByte uint8) {
		dims := int(dimsByte%6) + 1
		var enc []byte
		recs := readJournal(data, dims)
		for i, r := range recs {
			if i > 0 && r.lsn <= recs[i-1].lsn {
				t.Fatalf("record %d has LSN %d, not above its predecessor's %d", i, r.lsn, recs[i-1].lsn)
			}
			enc = appendJournalRec(enc, r.lsn, r.op, r.key)
		}
		if len(enc) > len(data) || !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatalf("the records read do not re-encode to the %d-byte prefix they were read from", len(enc))
		}

		var whole []byte
		var want []journalRec
		for step := 9 + 8*dims; len(data) >= step; data = data[step:] {
			r := journalRec{lsn: binary.LittleEndian.Uint64(data), op: journalOpInsert + data[8]%2, key: make([]float64, dims)}
			for d := range r.key {
				r.key[d] = bitsFloat(binary.LittleEndian.Uint64(data[9+8*d:]))
			}
			whole = appendJournalRec(whole, r.lsn, r.op, r.key)
			want = append(want, r)
		}
		for i := 1; i < len(want); i++ {
			if want[i].lsn <= want[i-1].lsn {
				want = want[:i]
				break
			}
		}
		torn := appendJournalRec(nil, 1, journalOpInsert, make(geom.Point, dims))
		got := readJournal(append(whole, torn[:len(data)%len(torn)]...), dims)
		if len(got) != len(want) {
			t.Fatalf("%d whole records with rising LSNs and a torn one read back as %d records", len(want), len(got))
		}
		for i, r := range got {
			if r.lsn != want[i].lsn || r.op != want[i].op || !keysEqual(r.key, want[i].key) {
				t.Fatalf("record %d read back as %+v, wrote %+v", i, r, want[i])
			}
		}
	})
}
