package rdd

import (
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"drapid/internal/hdfs"
	"drapid/internal/yarn"
)

// testContext builds a small 4-node cluster with 4 executors.
func testContext(t *testing.T, execCount int) *Context {
	t.Helper()
	fs := hdfs.New(hdfs.Config{BlockSize: 512, Replication: 2}, 4)
	var nodes []yarn.NodeSpec
	for i := 0; i < 4; i++ {
		nodes = append(nodes, yarn.NodeSpec{ID: i, VCores: 4, MemMB: 8192})
	}
	rm := yarn.NewResourceManager(nodes)
	grants, err := rm.Allocate(yarn.ContainerRequest{VCores: 2, MemMB: 2048}, execCount)
	if err != nil {
		t.Fatal(err)
	}
	return NewContext(fs, FromContainers(grants), DefaultCostModel())
}

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMapFilterCollect(t *testing.T) {
	ctx := testContext(t, 4)
	r := Parallelize(ctx, ints(100), 8)
	sq := Map(r, func(x int) int { return x * x })
	even := Filter(sq, func(x int) bool { return x%2 == 0 })
	got := Collect(even)
	want := 0
	for i := 0; i < 100; i++ {
		if (i*i)%2 == 0 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("collected %d, want %d", len(got), want)
	}
	if n := Count(even); int(n) != want {
		t.Errorf("count %d, want %d", n, want)
	}
}

func TestFlatMap(t *testing.T) {
	ctx := testContext(t, 2)
	r := Parallelize(ctx, ints(10), 3)
	dup := FlatMap(r, func(x int) []int { return []int{x, x} })
	if n := Count(dup); n != 20 {
		t.Errorf("count = %d, want 20", n)
	}
}

func TestTextFileReadsAllLines(t *testing.T) {
	ctx := testContext(t, 4)
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("line-%04d", i))
	}
	if _, err := ctx.FS.WriteLines("in.txt", lines); err != nil {
		t.Fatal(err)
	}
	r, err := TextFile(ctx, "in.txt")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPartitions() < 2 {
		t.Errorf("expected multiple partitions, got %d", r.NumPartitions())
	}
	got := Collect(r)
	sort.Strings(got)
	if len(got) != 200 || got[0] != "line-0000" || got[199] != "line-0199" {
		t.Errorf("bad collect: %d lines", len(got))
	}
	if _, err := TextFile(ctx, "missing"); err == nil {
		t.Error("missing file opened")
	}
}

func TestReduceByKey(t *testing.T) {
	ctx := testContext(t, 4)
	var pairs []Pair[string, int]
	for i := 0; i < 100; i++ {
		pairs = append(pairs, Pair[string, int]{Key: fmt.Sprintf("k%d", i%7), Value: 1})
	}
	r := Parallelize(ctx, pairs, 5)
	counts := Collect(ReduceByKey(r, NewHashPartitioner(4), func(a, b int) int { return a + b }))
	got := map[string]int{}
	for _, p := range counts {
		got[p.Key] = p.Value
	}
	if len(got) != 7 {
		t.Fatalf("got %d keys, want 7", len(got))
	}
	for k, v := range got {
		want := 100 / 7
		if k == "k0" || k == "k1" {
			want++ // 100 = 7*14 + 2
		}
		if v != want {
			t.Errorf("%s = %d, want %d", k, v, want)
		}
	}
}

func TestGroupByKeyGathersAll(t *testing.T) {
	ctx := testContext(t, 2)
	pairs := []Pair[string, int]{{"a", 1}, {"b", 2}, {"a", 3}, {"a", 4}, {"b", 5}}
	grouped := Collect(GroupByKey(Parallelize(ctx, pairs, 3), NewHashPartitioner(2)))
	byKey := map[string][]int{}
	for _, p := range grouped {
		vs := append([]int(nil), p.Value...)
		sort.Ints(vs)
		byKey[p.Key] = vs
	}
	if fmt.Sprint(byKey["a"]) != "[1 3 4]" || fmt.Sprint(byKey["b"]) != "[2 5]" {
		t.Errorf("grouped = %v", byKey)
	}
}

func TestLeftOuterJoinSemantics(t *testing.T) {
	ctx := testContext(t, 4)
	left := Parallelize(ctx, []Pair[string, string]{
		{"a", "L1"}, {"b", "L2"}, {"c", "L3"},
	}, 2)
	right := Parallelize(ctx, []Pair[string, string]{
		{"a", "R1"}, {"a", "R2"}, {"b", "R3"},
	}, 2)
	part := NewHashPartitioner(4)
	rows := Collect(LeftOuterJoin(left, right, part))

	joined := map[string][]string{}
	nulls := map[string]bool{}
	for _, p := range rows {
		if p.Value.HasRight {
			joined[p.Key] = append(joined[p.Key], p.Value.Left+"+"+p.Value.Right)
		} else {
			nulls[p.Key] = true
		}
	}
	sort.Strings(joined["a"])
	if fmt.Sprint(joined["a"]) != "[L1+R1 L1+R2]" {
		t.Errorf("a rows = %v", joined["a"])
	}
	if fmt.Sprint(joined["b"]) != "[L2+R3]" {
		t.Errorf("b rows = %v", joined["b"])
	}
	if !nulls["c"] || len(joined["c"]) != 0 {
		t.Errorf("left entry without match must produce a null row; nulls=%v", nulls)
	}
}

func TestPrePartitionedJoinSkipsShuffle(t *testing.T) {
	ctx := testContext(t, 4)
	part := NewHashPartitioner(8)
	mk := func(n int) *RDD[Pair[string, int]] {
		var pairs []Pair[string, int]
		for i := 0; i < n; i++ {
			pairs = append(pairs, Pair[string, int]{Key: fmt.Sprintf("k%d", i), Value: i})
		}
		return Parallelize(ctx, pairs, 4)
	}
	l := PartitionBy(mk(50), part)
	r := PartitionBy(mk(50), part)
	// Force both shuffles now.
	Count(l)
	Count(r)
	before := ctx.Metrics().ShuffleBytes
	rows := Collect(LeftOuterJoin(l, r, part))
	after := ctx.Metrics().ShuffleBytes
	if after != before {
		t.Errorf("pre-partitioned join shuffled %d bytes", after-before)
	}
	if len(rows) != 50 {
		t.Errorf("rows = %d, want 50", len(rows))
	}
	// PartitionBy with the same layout must be the identity.
	if PartitionBy(l, part) != l {
		t.Error("PartitionBy re-shuffled an already-partitioned dataset")
	}
}

func TestHashPartitionerDeterministicAndEqual(t *testing.T) {
	a, b := NewHashPartitioner(16), NewHashPartitioner(16)
	if a.ID() != b.ID() {
		t.Error("equal partitioners have different IDs")
	}
	if a.ID() == NewHashPartitioner(8).ID() {
		t.Error("different sizes share an ID")
	}
	f := func(key string) bool {
		p := a.Partition(key)
		return p >= 0 && p < 16 && p == b.Partition(key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCacheAvoidsRecompute(t *testing.T) {
	ctx := testContext(t, 2)
	var computes atomic.Int64 // the two partitions compute concurrently
	r := Parallelize(ctx, ints(10), 2)
	counted := MapPartitions(r, func(p int, tc *TaskContext, in []int) []int {
		computes.Add(1)
		return in
	}).Cache()
	Count(counted)
	first := computes.Load()
	Count(counted)
	if n := computes.Load(); n != first {
		t.Errorf("cached dataset recomputed: %d -> %d", first, n)
	}
}

func TestLineageRecoversKilledPartition(t *testing.T) {
	ctx := testContext(t, 2)
	r := Parallelize(ctx, ints(100), 4)
	sq := Map(r, func(x int) int { return x * x }).Cache()
	if n := Count(sq); n != 100 {
		t.Fatalf("count = %d", n)
	}
	if err := KillPartition(sq, 2); err != nil {
		t.Fatal(err)
	}
	if !IsLost(sq, 2) {
		t.Fatal("partition not marked lost")
	}
	sum := 0
	for _, v := range Collect(sq) {
		sum += v
	}
	want := 0
	for i := 0; i < 100; i++ {
		want += i * i
	}
	if sum != want {
		t.Errorf("sum after recovery = %d, want %d", sum, want)
	}
	if ctx.Metrics().Recomputes == 0 {
		t.Error("no recompute recorded")
	}
	if IsLost(sq, 2) {
		t.Error("partition still lost after recovery")
	}
}

func TestKillPartitionErrors(t *testing.T) {
	ctx := testContext(t, 2)
	r := Parallelize(ctx, ints(10), 2)
	if err := KillPartition(r, 0); err == nil {
		t.Error("killing unmaterialized dataset succeeded")
	}
	c := r.Cache()
	Count(c)
	if err := KillPartition(c, 99); err == nil {
		t.Error("killing bad index succeeded")
	}
}

func TestSimulatedTimeAdvances(t *testing.T) {
	ctx := testContext(t, 2)
	if ctx.SimElapsed() != 0 {
		t.Fatal("clock not at zero")
	}
	Count(Map(Parallelize(ctx, ints(1000), 4), func(x int) int { return x + 1 }))
	if ctx.SimElapsed() <= 0 {
		t.Error("clock did not advance")
	}
	m := ctx.Metrics()
	if m.Stages == 0 || m.Tasks == 0 {
		t.Errorf("metrics empty: %+v", m)
	}
}

func TestSimulatedTimeDeterministic(t *testing.T) {
	run := func() float64 {
		ctx := testContext(t, 3)
		pairs := make([]Pair[string, int], 500)
		for i := range pairs {
			pairs[i] = Pair[string, int]{Key: fmt.Sprintf("k%d", i%13), Value: i}
		}
		r := Parallelize(ctx, pairs, 6)
		Count(ReduceByKey(r, NewHashPartitioner(4), func(a, b int) int { return a + b }))
		return ctx.SimElapsed()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulated time not deterministic: %g vs %g", a, b)
	}
}

func TestMoreExecutorsRunFaster(t *testing.T) {
	elapsed := func(execs int) float64 {
		ctx := testContext(t, execs)
		r := Parallelize(ctx, ints(200000), 64)
		Count(Map(r, func(x int) int { return x * 2 }))
		return ctx.SimElapsed()
	}
	if e1, e4 := elapsed(1), elapsed(4); e4 >= e1 {
		t.Errorf("4 executors (%.3fs) not faster than 1 (%.3fs)", e4, e1)
	}
}

func TestSaveTextFile(t *testing.T) {
	ctx := testContext(t, 2)
	r := Parallelize(ctx, []string{"a", "b", "c", "d"}, 2)
	if err := SaveTextFile(r, "out"); err != nil {
		t.Fatal(err)
	}
	names := ctx.FS.List()
	found := 0
	for _, n := range names {
		if n == "out/part-00000" || n == "out/part-00001" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("part files missing: %v", names)
	}
}

func TestKeysValues(t *testing.T) {
	ctx := testContext(t, 2)
	r := Parallelize(ctx, []Pair[string, int]{{"a", 1}, {"b", 2}}, 1)
	ks := Collect(Keys(r))
	vs := Collect(Values(r))
	sort.Strings(ks)
	sort.Ints(vs)
	if fmt.Sprint(ks) != "[a b]" || fmt.Sprint(vs) != "[1 2]" {
		t.Errorf("keys=%v values=%v", ks, vs)
	}
}

// Property: ReduceByKey(+) over random pair sets equals a sequential fold.
func TestReduceByKeyMatchesSequential(t *testing.T) {
	ctx := testContext(t, 4)
	f := func(keys []uint8, vals []int8) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		pairs := make([]Pair[string, int], n)
		want := map[string]int{}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", keys[i]%16)
			v := int(vals[i])
			pairs[i] = Pair[string, int]{Key: k, Value: v}
			want[k] += v
		}
		r := Parallelize(ctx, pairs, 4)
		out := Collect(ReduceByKey(r, NewHashPartitioner(4), func(a, b int) int { return a + b }))
		if len(out) != len(want) {
			return false
		}
		for _, p := range out {
			if want[p.Key] != p.Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
