package region

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	good := Label{X: 10, Y: 10, W: 20, H: 20, Stride: 2, Skip: 3, Phase: 1}
	if err := good.Validate(100, 100); err != nil {
		t.Errorf("valid label rejected: %v", err)
	}
	bad := []Label{
		{X: 0, Y: 0, W: 0, H: 5, Stride: 1, Skip: 1},             // empty W
		{X: 0, Y: 0, W: 5, H: -1, Stride: 1, Skip: 1},            // empty H
		{X: -1, Y: 0, W: 5, H: 5, Stride: 1, Skip: 1},            // off left
		{X: 98, Y: 0, W: 5, H: 5, Stride: 1, Skip: 1},            // off right
		{X: 0, Y: 98, W: 5, H: 5, Stride: 1, Skip: 1},            // off bottom
		{X: 0, Y: 0, W: 5, H: 5, Stride: 0, Skip: 1},             // bad stride
		{X: 0, Y: 0, W: 5, H: 5, Stride: MaxStride + 1, Skip: 1}, // stride above cap
		{X: 0, Y: 0, W: 5, H: 5, Stride: 1, Skip: 0},             // bad skip
		{X: 0, Y: 0, W: 5, H: 5, Stride: 1, Skip: 2, Phase: 2},   // bad phase
	}
	for i, l := range bad {
		if err := l.Validate(100, 100); err == nil {
			t.Errorf("bad label %d accepted: %v", i, l)
		}
	}
	if err := (Label{X: 0, Y: 0, W: 5, H: 5, Stride: MaxStride, Skip: 1}).Validate(100, 100); err != nil {
		t.Errorf("stride at the cap rejected: %v", err)
	}
}

func TestActiveAt(t *testing.T) {
	l := Label{W: 1, H: 1, Stride: 1, Skip: 3, Phase: 1}
	active := []bool{false, true, false, false, true, false, false}
	for f, want := range active {
		if got := l.ActiveAt(f); got != want {
			t.Errorf("ActiveAt(%d) = %v, want %v", f, got, want)
		}
	}
	every := Label{W: 1, H: 1, Stride: 1, Skip: 1}
	for f := 0; f < 5; f++ {
		if !every.ActiveAt(f) {
			t.Errorf("skip=1 inactive at %d", f)
		}
	}
	// Negative frame indices stay well-defined.
	if l.ActiveAt(-2) != true {
		t.Error("ActiveAt(-2) with skip 3 phase 1: (-2-1)%3==0, want active")
	}
}

func TestContainsOnStride(t *testing.T) {
	l := Label{X: 4, Y: 6, W: 10, H: 8, Stride: 2, Skip: 1}
	if !l.Contains(4, 6) || !l.Contains(13, 13) {
		t.Error("corners should be contained")
	}
	if l.Contains(14, 6) || l.Contains(4, 14) || l.Contains(3, 6) {
		t.Error("outside points contained")
	}
	if !l.OnStride(4, 6) || !l.OnStride(6, 8) {
		t.Error("lattice points rejected")
	}
	if l.OnStride(5, 6) || l.OnStride(4, 7) {
		t.Error("off-lattice points accepted")
	}
}

func TestRowOverlaps(t *testing.T) {
	l := Label{X: 0, Y: 10, W: 5, H: 6, Stride: 3, Skip: 1}
	cases := map[int]bool{9: false, 10: true, 11: false, 13: true, 15: false, 16: false}
	for y, want := range cases {
		if got := l.RowOverlaps(y); got != want {
			t.Errorf("RowOverlaps(%d) = %v, want %v", y, got, want)
		}
	}
	if !l.RowInYRange(11) || l.RowInYRange(16) {
		t.Error("RowInYRange wrong")
	}
}

func TestSampledPixels(t *testing.T) {
	cases := []struct {
		l    Label
		want int
	}{
		{Label{W: 10, H: 10, Stride: 1}, 100},
		{Label{W: 10, H: 10, Stride: 2}, 25},
		{Label{W: 11, H: 11, Stride: 2}, 36}, // ceil(11/2)^2
		{Label{W: 7, H: 3, Stride: 4}, 2},    // ceil(7/4)*ceil(3/4) = 2*1
	}
	for _, c := range cases {
		if got := c.l.SampledPixels(); got != c.want {
			t.Errorf("%v SampledPixels = %d, want %d", c.l, got, c.want)
		}
	}
	if (Label{W: 3, H: 4}).Area() != 12 {
		t.Error("Area wrong")
	}
}

func TestListSortValidate(t *testing.T) {
	ls := List{
		{X: 5, Y: 30, W: 4, H: 4, Stride: 1, Skip: 1},
		{X: 1, Y: 10, W: 4, H: 4, Stride: 1, Skip: 1},
		{X: 9, Y: 10, W: 4, H: 4, Stride: 1, Skip: 1},
	}
	if ls.IsSortedByY() {
		t.Error("unsorted list reported sorted")
	}
	ls.SortByY()
	if !ls.IsSortedByY() || ls[0].Y != 10 || ls[0].X != 1 || ls[2].Y != 30 {
		t.Errorf("sort wrong: %v", ls)
	}
	if err := ls.Validate(100, 100); err != nil {
		t.Errorf("valid list rejected: %v", err)
	}
	ls[1].Stride = 0
	if err := ls.Validate(100, 100); err == nil {
		t.Error("invalid list accepted")
	}
	c := ls.Clone()
	c[0].X = 99
	if ls[0].X == 99 {
		t.Error("Clone aliases storage")
	}
}

func TestFullFrame(t *testing.T) {
	l := FullFrame(640, 480)
	if l.X != 0 || l.Y != 0 || l.W != 640 || l.H != 480 || l.Stride != 1 || l.Skip != 1 {
		t.Errorf("FullFrame = %v", l)
	}
	if err := l.Validate(640, 480); err != nil {
		t.Error(err)
	}
	if l.SampledPixels() != 640*480 {
		t.Error("FullFrame should sample every pixel")
	}
}

func TestClip(t *testing.T) {
	l, ok := Clip(Label{X: -5, Y: -5, W: 20, H: 20, Stride: 0, Skip: -1, Phase: 5}, 100, 100)
	if !ok {
		t.Fatal("clip rejected recoverable label")
	}
	if l.X != 0 || l.Y != 0 || l.W != 15 || l.H != 15 || l.Stride != 1 || l.Skip != 1 || l.Phase != 0 {
		t.Errorf("Clip = %v", l)
	}
	l2, ok := Clip(Label{X: 90, Y: 90, W: 50, H: 50, Stride: 2, Skip: 2}, 100, 100)
	if !ok || l2.W != 10 || l2.H != 10 {
		t.Errorf("Clip overflow = %v ok=%v", l2, ok)
	}
	if l3, ok := Clip(Label{X: 0, Y: 0, W: 10, H: 10, Stride: 16, Skip: 1}, 100, 100); !ok || l3.Stride != MaxStride {
		t.Errorf("Clip stride 16 = %v ok=%v, want stride clamped to %d", l3, ok, MaxStride)
	}
	if _, ok := Clip(Label{X: 200, Y: 0, W: 10, H: 10}, 100, 100); ok {
		t.Error("fully outside label not rejected")
	}
	if _, ok := Clip(Label{X: 0, Y: 0, W: -3, H: 10}, 100, 100); ok {
		t.Error("negative-size label not rejected")
	}
}

// Property: after Clip, the label always validates.
func TestClipValidatesProperty(t *testing.T) {
	f := func(x, y int16, w, h uint8, stride, skip int8) bool {
		l, ok := Clip(Label{X: int(x), Y: int(y), W: int(w), H: int(h),
			Stride: int(stride), Skip: int(skip)}, 320, 240)
		if !ok {
			return true
		}
		return l.Validate(320, 240) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	ls := List{
		{X: 0, Y: 0, W: 10, H: 20, Stride: 1, Skip: 1},
		{X: 50, Y: 50, W: 30, H: 12, Stride: 2, Skip: 4},
	}
	s := ls.Stats(100, 100)
	if s.NumRegions != 2 {
		t.Errorf("NumRegions = %d", s.NumRegions)
	}
	if s.MinW != 10 || s.MaxW != 30 || s.MinH != 12 || s.MaxH != 20 {
		t.Errorf("size stats wrong: %+v", s)
	}
	if s.MinStride != 1 || s.MaxStride != 2 || s.MinSkip != 1 || s.MaxSkip != 4 {
		t.Errorf("rhythm stats wrong: %+v", s)
	}
	if s.TotalSampled != 200+15*6 {
		t.Errorf("TotalSampled = %d, want %d", s.TotalSampled, 200+90)
	}
	if s.UnionAreaApproxPixels <= 0 || s.UnionAreaApproxPixels > 100*100 {
		t.Errorf("union approx out of range: %d", s.UnionAreaApproxPixels)
	}
	empty := List{}.Stats(100, 100)
	if empty.NumRegions != 0 || empty.TotalSampled != 0 {
		t.Errorf("empty stats: %+v", empty)
	}
}

func TestClusterKMeansBasic(t *testing.T) {
	// Two clusters of small regions far apart: k=2 must produce two boxes
	// that each bound one cluster.
	var ls List
	for i := 0; i < 10; i++ {
		ls = append(ls, Label{X: 10 + i, Y: 10 + i, W: 5, H: 5, Stride: 3, Skip: 2})
		ls = append(ls, Label{X: 200 + i, Y: 200 + i, W: 5, H: 5, Stride: 2, Skip: 4})
	}
	out := ClusterKMeans(ls, 2, 320, 240, 1)
	if len(out) != 2 {
		t.Fatalf("got %d clusters, want 2", len(out))
	}
	for _, l := range out {
		if l.Stride != 1 || l.Skip != 1 {
			t.Errorf("multi-ROI cluster must not use stride/skip: %v", l)
		}
		if err := l.Validate(320, 240); err != nil {
			t.Errorf("invalid cluster: %v", err)
		}
	}
	// First cluster bounds 10..24 in both axes.
	if out[0].X != 10 || out[0].Y != 10 || out[0].W != 14 || out[0].H != 14 {
		t.Errorf("cluster 0 box = %v", out[0])
	}
}

func TestClusterKMeansFewRegions(t *testing.T) {
	ls := List{{X: 5, Y: 5, W: 10, H: 10, Stride: 4, Skip: 8}}
	out := ClusterKMeans(ls, 16, 100, 100, 1)
	if len(out) != 1 {
		t.Fatalf("got %d, want 1", len(out))
	}
	if out[0].Stride != 1 || out[0].Skip != 1 {
		t.Error("stride/skip must be stripped for multi-ROI model")
	}
	if ClusterKMeans(nil, 16, 100, 100, 1) != nil {
		t.Error("empty input should return nil")
	}
}

func TestClusterKMeansCapsCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var ls List
	for i := 0; i < 500; i++ {
		ls = append(ls, Label{X: rng.Intn(1800), Y: rng.Intn(1000), W: 40, H: 40, Stride: 1, Skip: 1})
	}
	out := ClusterKMeans(ls, 16, 1920, 1080, 7)
	if len(out) > 16 || len(out) == 0 {
		t.Fatalf("got %d clusters, want 1..16", len(out))
	}
	if !out.IsSortedByY() {
		t.Error("output not sorted")
	}
	// Every input region's center must be inside some output box.
	for _, l := range ls {
		cx, cy := l.X+l.W/2, l.Y+l.H/2
		found := false
		for _, o := range out {
			if o.Contains(cx, cy) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("input region %v center not covered by any cluster", l)
		}
	}
}

func TestClusterKMeansDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ls List
	for i := 0; i < 100; i++ {
		ls = append(ls, Label{X: rng.Intn(600), Y: rng.Intn(400), W: 20, H: 20, Stride: 1, Skip: 1})
	}
	a := ClusterKMeans(ls.Clone(), 8, 640, 480, 42)
	b := ClusterKMeans(ls.Clone(), 8, 640, 480, 42)
	if len(a) != len(b) {
		t.Fatal("non-deterministic cluster count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic cluster %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClusterKMeansPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	ClusterKMeans(List{{W: 1, H: 1, Stride: 1, Skip: 1}}, 0, 10, 10, 1)
}

func TestMergeOverlapping(t *testing.T) {
	ls := List{
		{X: 0, Y: 0, W: 20, H: 20, Stride: 2, Skip: 3, Phase: 1},
		{X: 5, Y: 5, W: 20, H: 20, Stride: 1, Skip: 1}, // heavy overlap with first
		{X: 100, Y: 100, W: 10, H: 10, Stride: 1, Skip: 1},
	}
	out := MergeOverlapping(ls, 0.2, 200, 200)
	if len(out) != 2 {
		t.Fatalf("got %d labels, want 2 (first two merged)", len(out))
	}
	var big Label
	for _, l := range out {
		if l.W > 10 {
			big = l
		}
	}
	// Bounding box of the overlapping pair with the finer rhythm.
	if big.X != 0 || big.Y != 0 || big.W != 25 || big.H != 25 {
		t.Errorf("merged box = %v", big)
	}
	if big.Stride != 1 || big.Skip != 1 {
		t.Errorf("merged rhythm = s%d k%d, want finest (1,1)", big.Stride, big.Skip)
	}
	if err := out.Validate(200, 200); err != nil {
		t.Fatal(err)
	}
}

func TestMergeOverlappingDisjointUntouched(t *testing.T) {
	ls := List{
		{X: 0, Y: 0, W: 10, H: 10, Stride: 1, Skip: 1},
		{X: 50, Y: 50, W: 10, H: 10, Stride: 2, Skip: 2},
	}
	out := MergeOverlapping(ls, 0.1, 100, 100)
	if len(out) != 2 {
		t.Fatalf("disjoint labels merged: %v", out)
	}
	// Input is not mutated.
	single := MergeOverlapping(ls[:1], 0.1, 100, 100)
	if len(single) != 1 || single[0] != ls[0] {
		t.Error("single-label merge wrong")
	}
}

func TestMergeOverlappingChain(t *testing.T) {
	// A chain of pairwise-overlapping labels collapses transitively.
	var ls List
	for i := 0; i < 10; i++ {
		ls = append(ls, Label{X: i * 6, Y: 0, W: 10, H: 10, Stride: 1, Skip: 1})
	}
	out := MergeOverlapping(ls, 0.2, 200, 200)
	if len(out) != 1 {
		t.Fatalf("chain merged into %d labels, want 1", len(out))
	}
	if out[0].X != 0 || out[0].W != 9*6+10 {
		t.Errorf("chain box = %v", out[0])
	}
}

func TestOverlapCoeff(t *testing.T) {
	a := Label{X: 0, Y: 0, W: 10, H: 10}
	if overlapCoeff(a, a) != 1 {
		t.Error("self overlap != 1")
	}
	if overlapCoeff(a, Label{X: 50, Y: 50, W: 5, H: 5}) != 0 {
		t.Error("disjoint overlap != 0")
	}
	// Containment yields 1 regardless of size ratio.
	if overlapCoeff(a, Label{X: 2, Y: 2, W: 3, H: 3}) != 1 {
		t.Error("nested overlap != 1")
	}
}
