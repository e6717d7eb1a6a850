package exec

import (
	"reflect"
	"testing"
)

func TestScheduleOrder(t *testing.T) {
	fs, err := Schedule([]int{2, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fractions: sub1 at 1/4, {sub0, sub1} at 1/2, sub1 at 3/4, and
	// {sub0, sub1, sub2} at 1 — subplan id breaks ties within a fraction.
	want := []Firing{
		{1, 1, 4}, {0, 1, 2}, {1, 2, 4}, {1, 3, 4}, {0, 2, 2}, {1, 4, 4}, {2, 1, 1},
	}
	if len(fs) != len(want) {
		t.Fatalf("%d firings, want %d", len(fs), len(want))
	}
	for i, f := range fs {
		if f != want[i] {
			t.Errorf("firing %d = %+v, want %+v", i, f, want[i])
		}
	}
	if !fs[6].Final() || fs[2].Final() {
		t.Errorf("Final flags wrong: %+v", fs)
	}
	var sizes []int
	for rest := fs; len(rest) > 0; {
		group := NextGroup(rest)
		sizes = append(sizes, len(group))
		rest = rest[len(group):]
	}
	if want := []int{1, 2, 1, 3}; !reflect.DeepEqual(sizes, want) {
		t.Errorf("same-fraction group sizes = %v, want %v", sizes, want)
	}
}

func TestScheduleRejectsBadInput(t *testing.T) {
	if _, err := Schedule([]int{1, 0}); err == nil {
		t.Error("pace 0 accepted")
	}
}
