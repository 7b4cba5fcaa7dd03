package engine

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/value"
)

// FuzzParallelMergeEquivalence is the merge-law fuzzer behind the parallel
// aggregation path: a fuzz input encodes one aggregate function, a value
// stream, and arbitrary partition split points. Folding the whole stream
// into one accumulator must agree exactly with folding each partition into
// its own accumulator and merging the partials in partition order — the
// invariant the partitioned fold (foldPartitions) relies on for every group.
//
// Value construction keeps sums exact so equality can be asserted without
// tolerance: integers are small, and floats are eighths (k/8) of bounded
// magnitude, so every partial sum is exactly representable and no addition
// order can round differently.
func FuzzParallelMergeEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x8a, 0x01, 0x94, 0x81, 0x9e})             // sum: ints with a split
	f.Add([]byte{0x03, 0x04, 0x41, 0x84, 0x41, 0x02, 0x42})             // count distinct: dup across split
	f.Add([]byte{0x04, 0x03, 0x88, 0x83, 0x90, 0x00, 0x00, 0x01, 0x7f}) // avg: floats, a NULL, an int
	f.Add([]byte{0x05, 0x04, 0x5a, 0x81, 0x05, 0x84, 0x41})             // min: strings vs ints across splits
	f.Add([]byte{0x01, 0x00, 0x00, 0x80, 0x00, 0x80, 0x00})             // count(*): NULLs still count
	f.Add([]byte{0x02, 0x03, 0x10})                                     // count(x): single float
	f.Add([]byte{0x06})                                                 // max: empty stream
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		call := fuzzAggCall(data[0])

		vals, splits := fuzzValueStream(data[1:])

		// Reference: one accumulator over the whole stream.
		single, err := refAccumulator(call)
		if err != nil {
			t.Fatal(err)
		}
		var singleErr error
		for _, v := range vals {
			if singleErr = single.add(v); singleErr != nil {
				break
			}
		}

		// Partitioned: one accumulator per split, merged in order.
		merged, err := refAccumulator(call)
		if err != nil {
			t.Fatal(err)
		}
		var partErr error
	parts:
		for pi := 0; pi < len(splits); pi++ {
			lo := 0
			if pi > 0 {
				lo = splits[pi-1]
			}
			hi := len(vals)
			if pi < len(splits) {
				hi = splits[pi]
			}
			part, err := refAccumulator(call)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals[lo:hi] {
				if partErr = part.add(v); partErr != nil {
					break parts
				}
			}
			if partErr = merged.merge(part); partErr != nil {
				break
			}
		}
		// The loop above covers [0, splits...); fold the tail partition.
		if partErr == nil {
			lo := 0
			if len(splits) > 0 {
				lo = splits[len(splits)-1]
			}
			part, err := refAccumulator(call)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals[lo:] {
				if partErr = part.add(v); partErr != nil {
					break
				}
			}
			if partErr == nil {
				partErr = merged.merge(part)
			}
		}

		if (singleErr == nil) != (partErr == nil) {
			t.Fatalf("%s over %v: single-pass err=%v, partitioned err=%v (splits %v)",
				call, vals, singleErr, partErr, splits)
		}
		if singleErr != nil {
			return // both paths rejected the stream; nothing to compare
		}
		want, got := single.result(), merged.result()
		if want.IsNull() != got.IsNull() ||
			(!want.IsNull() && (want.Kind() != got.Kind() || value.Compare(want, got) != 0)) {
			t.Fatalf("%s over %v split at %v: single-pass %v, merged %v",
				call, vals, splits, want, got)
		}
	})
}

// fuzzAggCall maps a selector byte to one of the seven accumulator kinds.
func fuzzAggCall(b byte) *expr.AggCall {
	switch b % 7 {
	case 0:
		return &expr.AggCall{Fn: expr.AggSum}
	case 1:
		return &expr.AggCall{Fn: expr.AggCount, Star: true}
	case 2:
		return &expr.AggCall{Fn: expr.AggCount}
	case 3:
		return &expr.AggCall{Fn: expr.AggCount, Distinct: true}
	case 4:
		return &expr.AggCall{Fn: expr.AggAvg}
	case 5:
		return &expr.AggCall{Fn: expr.AggMin}
	default:
		return &expr.AggCall{Fn: expr.AggMax}
	}
}

// fuzzValueStream decodes (tag, payload) byte pairs into a value stream and
// partition split indexes. Tag bit 0x80 starts a new partition before the
// value; tag%5 picks the kind. Floats are exact eighths so any summation
// order is rounding-free.
func fuzzValueStream(data []byte) ([]value.Value, []int) {
	var vals []value.Value
	var splits []int
	for i := 0; i+1 < len(data); i += 2 {
		tag, payload := data[i], data[i+1]
		if tag&0x80 != 0 && len(vals) > 0 {
			splits = append(splits, len(vals))
		}
		switch tag % 5 {
		case 0:
			vals = append(vals, value.Null)
		case 1:
			vals = append(vals, value.NewInt(int64(payload)-128))
		case 2:
			vals = append(vals, value.NewInt((int64(payload)-128)*1000))
		case 3:
			vals = append(vals, value.NewFloat(float64(int64(payload)-128)/8))
		default:
			vals = append(vals, value.NewString(fmt.Sprintf("s%d", payload%16)))
		}
	}
	return vals, splits
}
