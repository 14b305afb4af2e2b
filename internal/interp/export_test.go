package interp

// ProbeArray returns a copy of a COMMON array's data as float64s.
func (in *Interp) ProbeArray(block, name string) ([]float64, bool) {
	blk := in.commons[block]
	if blk == nil {
		return nil, false
	}
	a := blk.arrays[name]
	if a == nil {
		return nil, false
	}
	out := make([]float64, a.Total())
	for i := range out {
		out[i] = a.Get(i).AsFloat()
	}
	return out, true
}
