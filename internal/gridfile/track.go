package gridfile

import "pgridfile/internal/geom"

// Tracked mutations: the bodies of Insert and Delete, which additionally
// report which buckets the mutation touched, created or destroyed. The
// persistent store's write path needs this bookkeeping to know which bucket
// pages to rewrite, which placements to allocate and which to retire —
// without diffing the whole file after every record. They require exclusive
// access to the File.

// InsertResult describes the bucket-level effect of one tracked insert.
type InsertResult struct {
	// Target is the bucket the record initially landed in. Its contents
	// changed even when splits later moved records out of it.
	Target int32
	// Created lists the ids of buckets born from splits, in creation order
	// (new ids are always appended, so these are consecutive). Empty when
	// the insert caused no split.
	Created []int32
	// Splits is the number of bucket splits the insert triggered.
	Splits int
}

// Dirty returns every bucket whose record set may have changed: the target
// plus every created bucket.
func (r InsertResult) Dirty() []int32 {
	return append([]int32{r.Target}, r.Created...)
}

// DeleteResult describes the bucket-level effect of one tracked delete.
type DeleteResult struct {
	// Removed reports whether a record matching the key existed and was
	// deleted. When false the file is unchanged and the other fields are
	// meaningless.
	Removed bool
	// Target is the bucket the record was deleted from.
	Target int32
	// Merged reports whether the deletion triggered a buddy merge; Keep is
	// the surviving bucket (which absorbed the records) and Dead the
	// retired bucket slot.
	Merged bool
	Keep   int32
	Dead   int32
}

// Dirty returns every surviving bucket whose record set may have changed: the
// target, or after a merge (which always involves the target) the survivor.
func (r DeleteResult) Dirty() []int32 {
	switch {
	case !r.Removed:
		return nil
	case r.Merged:
		return []int32{r.Keep}
	}
	return []int32{r.Target}
}

// InsertTracked is Insert with bucket-level effect reporting.
func (f *File) InsertTracked(rec Record) (InsertResult, error) {
	id, err := f.locate(rec.Key)
	if err != nil {
		return InsertResult{}, err
	}
	before := len(f.bkts)
	f.bkts[id].appendRecord(rec, f.cfg.Dims)
	f.nrec++
	f.splitWhileOverfull(id)
	res := InsertResult{Target: id, Splits: len(f.bkts) - before}
	for i := before; i < len(f.bkts); i++ {
		res.Created = append(res.Created, int32(i))
	}
	return res, nil
}

// DeleteTracked is Delete with bucket-level effect reporting.
func (f *File) DeleteTracked(p geom.Point) DeleteResult {
	id, err := f.locate(p)
	if err != nil {
		return DeleteResult{}
	}
	b := f.bkts[id]
	dims := f.cfg.Dims
	for i, n := 0, b.count(dims); i < n; i++ {
		if pointEqual(b.keys[i*dims:(i+1)*dims], p) {
			b.removeRecord(i, dims)
			f.nrec--
			res := DeleteResult{Removed: true, Target: id}
			res.Keep, res.Dead, res.Merged = f.maybeMerge(id)
			return res
		}
	}
	return DeleteResult{}
}
