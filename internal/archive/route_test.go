package archive

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relstore"
)

// routeGolden was computed at the commit before Route existed (699f417)
// from the composition it replaces — that commit's 64-way stripe index of
// the uuid, modulo n — for n = 1, 2, 3, 4, 16, 64: the empty string, a one-byte string and thirty
// synth root-workflow uuids (seeds 1..30). Where a workflow's rows live on
// disk is Route(uuid, partitions), so these numbers may never change.
var routeGolden = []struct {
	uuid string
	want [6]int
}{
	{"", [6]int{0, 1, 2, 1, 5, 5}},
	{"a", [6]int{0, 0, 2, 0, 12, 44}},
	{"eeb54fb0-3524-5e18-86ee-953b396a3312", [6]int{0, 0, 2, 0, 12, 44}},
	{"d7a9bdf7-0902-56df-a33b-51a46f1c8ec5", [6]int{0, 0, 0, 2, 10, 42}},
	{"b7a35189-a53c-59c8-b74f-c52b73be2194", [6]int{0, 0, 1, 2, 10, 10}},
	{"5c3d6960-6192-5cec-a97e-343a5cb743f6", [6]int{0, 0, 0, 0, 12, 12}},
	{"149f9236-a355-50f9-8240-3879b2d93aca", [6]int{0, 1, 0, 1, 9, 57}},
	{"1050ac19-cb55-5607-8a7e-6d26aba7f653", [6]int{0, 0, 0, 0, 12, 60}},
	{"40408a62-3278-53ed-8647-ac65a3feb1fd", [6]int{0, 1, 0, 3, 3, 3}},
	{"9a339703-8d05-5fe8-8eb4-45677392cf57", [6]int{0, 0, 2, 0, 8, 56}},
	{"720d1c85-c096-5be6-a81a-d5f63f188e27", [6]int{0, 1, 2, 1, 5, 5}},
	{"108c9c54-1bde-50c5-b738-611a992aa152", [6]int{0, 0, 0, 0, 8, 24}},
	{"ee4c0024-9144-51b2-94cb-5630d42fcc39", [6]int{0, 0, 0, 2, 14, 30}},
	{"23aa8ab4-c3ce-580a-b632-fb1a493abab6", [6]int{0, 0, 2, 2, 6, 38}},
	{"d7171f5d-4fdd-5f6c-b7f9-bb4d87092f17", [6]int{0, 0, 0, 0, 8, 24}},
	{"b6a1c3c8-aa33-579c-b1de-d2d825f6d9f6", [6]int{0, 0, 1, 0, 0, 16}},
	{"53a5bf28-70a3-5047-a9f6-e4835dc6cd07", [6]int{0, 0, 0, 0, 4, 36}},
	{"d13a4701-4ffd-57b6-9127-c52adfc550cf", [6]int{0, 0, 1, 0, 12, 28}},
	{"48bad7f5-d3f7-56d9-8548-f96027bc2e37", [6]int{0, 1, 1, 3, 11, 43}},
	{"493d1a4b-16f2-5b2a-bfb4-63eba32f44e5", [6]int{0, 0, 0, 2, 10, 42}},
	{"952e4ed8-fc1b-57c4-845b-01a63f2f3c86", [6]int{0, 0, 1, 2, 6, 22}},
	{"fce06ad0-f558-500a-9e5f-8ab4a3f8dc4e", [6]int{0, 0, 0, 2, 6, 54}},
	{"abb55981-e94a-5ceb-bff3-b6ed4d6b7654", [6]int{0, 0, 2, 2, 14, 62}},
	{"6eb20a41-4d71-5d4f-8cda-324125e74bd8", [6]int{0, 0, 1, 0, 4, 4}},
	{"33224d01-0633-5201-ada3-de24224a503a", [6]int{0, 0, 2, 0, 12, 44}},
	{"9fbcc154-ad1b-5745-ad22-ce6eeb8a2a91", [6]int{0, 0, 2, 0, 12, 44}},
	{"7f343f07-eca0-53fb-9123-9d167ac2ca1f", [6]int{0, 1, 2, 3, 7, 23}},
	{"86812be3-aacc-5fbc-a5b4-4c94e1c6f0b1", [6]int{0, 0, 1, 0, 8, 40}},
	{"5fcb25a6-2610-5c16-8a06-61fc0d728a43", [6]int{0, 1, 2, 3, 3, 35}},
	{"85056fcf-3280-5b59-8b12-1dd7033fe304", [6]int{0, 1, 2, 1, 1, 17}},
	{"de8c8baa-4ff3-533d-b935-d22a0cc5c625", [6]int{0, 0, 2, 2, 2, 2}},
	{"f2e5ae59-0fb3-59db-a1f3-ea04fbafd6a7", [6]int{0, 0, 0, 0, 0, 48}},
}

func TestRouteGolden(t *testing.T) {
	if len(routeGolden) != 32 {
		t.Fatalf("%d golden uuids, want 32", len(routeGolden))
	}
	ns := [6]int{1, 2, 3, 4, 16, 64}
	for _, g := range routeGolden {
		for i, n := range ns {
			if got := Route(g.uuid, n); got != g.want[i] {
				t.Errorf("Route(%q, %d) = %d, the parent's stripe %% %d was %d", g.uuid, n, got, n, g.want[i])
			}
		}
		// The old stripe index is Route into all 64 slots, and every n
		// composes from it: the on-disk contract in one line.
		stripe := Route(g.uuid, routeSlots)
		for n := 1; n <= routeSlots; n++ {
			if got := Route(g.uuid, n); got != stripe%n {
				t.Fatalf("Route(%q, %d) = %d, want stripe %d %% %d = %d", g.uuid, n, got, stripe, n, stripe%n)
			}
		}
	}
}

// TestRouteBoundIsTheStoreBound: Route's 64 slots and relstore's cap on a
// new directory's partition count are one number. A store directory with
// routeSlots partitions opens; one more is refused, naming the count and
// the bound.
func TestRouteBoundIsTheStoreBound(t *testing.T) {
	a, err := OpenDir(filepath.Join(t.TempDir(), "max"), relstore.Options{Partitions: routeSlots})
	if err != nil {
		t.Fatalf("%d partitions: %v", routeSlots, err)
	}
	a.Close()
	_, err = OpenDir(filepath.Join(t.TempDir(), "over"), relstore.Options{Partitions: routeSlots + 1})
	if err == nil || !strings.Contains(err.Error(), "65 partitions") || !strings.Contains(err.Error(), "between 1 and 64") {
		t.Fatalf("%d partitions: err = %v, want a refusal naming 65 and the bound 64", routeSlots+1, err)
	}
}
