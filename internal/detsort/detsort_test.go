package detsort

import (
	"reflect"
	"testing"
)

func TestKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	if got, want := Keys(m), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
	if got := Keys(map[int]bool(nil)); len(got) != 0 {
		t.Fatalf("Keys(nil) = %v, want empty", got)
	}
}

func TestKeysNamedKeyType(t *testing.T) {
	type id int
	m := map[id]string{3: "c", 1: "a", 2: "b"}
	if got, want := Keys(m), []id{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

func TestKeysInto(t *testing.T) {
	m := map[int]string{9: "i", 4: "d", 7: "g"}
	buf := make([]int, 0, 8)
	buf = KeysInto(buf, m)
	if want := []int{4, 7, 9}; !reflect.DeepEqual(buf, want) {
		t.Fatalf("KeysInto = %v, want %v", buf, want)
	}
	// Reuse with a preserved prefix: only the appended tail is sorted.
	buf = buf[:1]
	buf = KeysInto(buf, map[int]string{2: "b", 1: "a"})
	if want := []int{4, 1, 2}; !reflect.DeepEqual(buf, want) {
		t.Fatalf("KeysInto with prefix = %v, want %v", buf, want)
	}
	// Steady-state reuse allocates nothing once grown.
	if allocs := testing.AllocsPerRun(100, func() { buf = KeysInto(buf[:0], m) }); allocs != 0 {
		t.Fatalf("KeysInto steady state allocates %v times per run, want 0", allocs)
	}
}
