package gridfile

// ForEachRecordInBucket calls fn with every record in the live bucket with
// the given stable id. The key slice is a view into bucket storage and must
// not be retained or modified; copy it if needed beyond the callback. It
// reports whether the bucket exists. The parallel engine uses this to hand
// each worker the contents of its assigned buckets.
func (f *File) ForEachRecordInBucket(id int32, fn func(key []float64, data []byte)) bool {
	if id < 0 || int(id) >= len(f.bkts) || f.bkts[id] == nil {
		return false
	}
	b := f.bkts[id]
	dims := f.cfg.Dims
	for i, n := 0, b.count(dims); i < n; i++ {
		var data []byte
		if b.data != nil {
			data = b.data[i]
		}
		fn(b.keys[i*dims:(i+1)*dims], data)
	}
	return true
}

// ForEachBucket calls fn with the stable id and record count of every live
// bucket, in ascending id order — Buckets() without the views: no corner
// vectors copied, no regions computed. The checkpoint reader uses it to size
// its placements.
func (f *File) ForEachBucket(fn func(id int32, records int)) {
	for id, b := range f.bkts {
		if b != nil {
			fn(int32(id), b.count(f.cfg.Dims))
		}
	}
}

// AppendBucketKeys appends the keys of the live bucket with the given stable
// id to dst as one flat array — record i at [i*Dims, (i+1)*Dims) of what it
// appends — growing dst at most once, and returns the extended slice. It
// appends nothing for a dead or unknown id. The page writer and the parallel
// engine use it to copy a bucket out whole.
func (f *File) AppendBucketKeys(dst []float64, id int32) []float64 {
	if id < 0 || int(id) >= len(f.bkts) || f.bkts[id] == nil {
		return dst
	}
	return append(dst, f.bkts[id].keys...)
}
