package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTableMatchesMap: puts, gets and deletes over dense, strided, wide
// and huge IDs agree with a map; Each visits the entries in ID order;
// the arrays never cover more than the density rule allows; and every
// ID held in the map lies past them.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[FileID, int]
	oracle := map[FileID]int{}
	peak := 0
	for i := 0; i < 200000; i++ {
		var id FileID
		switch rng.Intn(4) {
		case 0:
			id = FileID(rng.Intn(3000))
		case 1:
			id = FileID(rng.Intn(3000))*16 + 5
		case 2:
			id = FileID(rng.Intn(5000))
		case 3:
			id = FileID(rng.Uint64())
		}
		chunks := len(tab.chunks)
		switch r := rng.Intn(10); {
		case r < 6:
			*tab.Put(id) = i
			oracle[id] = i
		case r < 8:
			tab.Delete(id)
			delete(oracle, id)
		default:
			v, ok := oracle[id]
			if p := tab.Get(id); (p != nil) != ok || ok && *p != v {
				t.Fatalf("op %d: Get(%d) disagrees with the map", i, id)
			}
		}
		peak = max(peak, tab.Len())
		if tab.Len() != len(oracle) {
			t.Fatalf("op %d: Len %d, map holds %d", i, tab.Len(), len(oracle))
		}
		if covered := len(tab.chunks) * tableChunk; covered >= max(tableFloor, tableSlack*peak)+tableChunk {
			t.Fatalf("op %d: arrays cover %d IDs for at most %d entries", i, covered, peak)
		}
		if len(tab.chunks) != chunks {
			for id := range tab.sparse {
				if tab.covers(id) {
					t.Fatalf("op %d: ID %d is in the map but inside the arrays' %d", i, id, len(tab.chunks)*tableChunk)
				}
			}
		}
	}
	if len(tab.sparse) == 0 || len(tab.chunks)*tableChunk <= tableFloor {
		t.Fatalf("the test no longer fills both sides: %d in the map, arrays cover %d", len(tab.sparse), len(tab.chunks)*tableChunk)
	}

	var want []FileID
	for id := range oracle {
		want = append(want, id)
	}
	slices.Sort(want)
	var got []FileID
	tab.Each(func(id FileID, v *int) {
		if *v != oracle[id] {
			t.Fatalf("Each: entry %d holds %d, want %d", id, *v, oracle[id])
		}
		got = append(got, id)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Each visited %d IDs out of order or incompletely, want %d", len(got), len(want))
	}
}
