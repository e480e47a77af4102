package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pgridfile/internal/geom"
)

// Per-disk write-ahead journal. Every mutation is appended (and fsynced) to
// the journal of every disk owning a copy of the target bucket *before* any
// data page is touched, and the mutation is acknowledged only once all owner
// journals hold it. Open replays the journals through the grid
// file's deterministic insert/delete machinery, so a crash at any point
// between the last journal fsync and the last replica page write loses
// nothing — and a crash before the last journal fsync loses only
// never-acknowledged operations.
//
// The journal is logical (it records the operation and key, not page
// images): bucket splits, scale refinements and buddy merges are re-derived
// during replay by re-running the op, which is deterministic given the
// checkpointed grid state. A record is laid out as
//
//	size u32 | lsn u64 | op u8 | pad u8×3 | key f64×dims | crc u32
//
// size counts the bytes after the size field; crc is the CRC-32C of
// everything before it (size included). Reading stops at the first short,
// implausible or checksum-failing record, which discards a torn tail —
// exactly the records whose fsync never completed, and therefore exactly
// the operations that were never acknowledged — and at the first record whose
// LSN does not exceed its predecessor's, which the writer never appends.
const (
	journalOpInsert = 1
	journalOpDelete = 2

	journalHdr = 4 + 8 + 4 // size + lsn + op/pad
	journalCRC = 4
)

// JournalFileName names disk d's write-ahead journal within a layout
// directory. Exported for the same reason as DiskFileName.
func JournalFileName(d int) string { return fmt.Sprintf("journal%03d.wal", d) }

// journalRecSize returns the encoded size of one record for a layout with
// the given dimensionality.
func journalRecSize(dims int) int { return journalHdr + 8*dims + journalCRC }

// appendJournalRec encodes one journal record into dst.
func appendJournalRec(dst []byte, lsn uint64, op uint8, key geom.Point) []byte {
	start := len(dst)
	size := uint32(8 + 4 + 8*len(key) + journalCRC)
	dst = binary.LittleEndian.AppendUint32(dst, size)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, op, 0, 0, 0)
	for _, k := range key {
		dst = binary.LittleEndian.AppendUint64(dst, floatBits(k))
	}
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// journalRec is one decoded journal record.
type journalRec struct {
	lsn uint64
	op  uint8
	key []float64
}

// readJournal decodes every valid record from one journal file's contents,
// stopping at the first torn or corrupt entry (see the comment above — the
// tail past that point holds only unacknowledged writes). A record is valid
// only if appendJournalRec could have written it, byte for byte, and only if
// its LSN exceeds the one before it: a journal's records are appended in LSN
// order, so a repeated record must not count as a second operation.
func readJournal(data []byte, dims int) []journalRec {
	want := journalRecSize(dims)
	var out []journalRec
	for off := 0; off+want <= len(data); off += want {
		rec := data[off : off+want]
		if binary.LittleEndian.Uint32(rec[0:]) != uint32(want-4) {
			break
		}
		stored := binary.LittleEndian.Uint32(rec[want-journalCRC:])
		if stored != crc32.Checksum(rec[:want-journalCRC], crcTable) {
			break
		}
		r := journalRec{
			lsn: binary.LittleEndian.Uint64(rec[4:]),
			op:  rec[12],
			key: make([]float64, dims),
		}
		if (r.op != journalOpInsert && r.op != journalOpDelete) || rec[13]|rec[14]|rec[15] != 0 {
			break
		}
		if len(out) > 0 && r.lsn <= out[len(out)-1].lsn {
			break
		}
		for d := 0; d < dims; d++ {
			r.key[d] = bitsFloat(binary.LittleEndian.Uint64(rec[journalHdr+8*d:]))
		}
		out = append(out, r)
	}
	return out
}
