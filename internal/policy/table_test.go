package policy

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestBuiltinsRegistered: every heuristic strategy resolves by name
// without a model — the contract the experiments mode checks and config
// validation depend on — and rlbase is the one policy that needs a
// model. deploy_test.go builds each name and checks what it answers to.
func TestBuiltinsRegistered(t *testing.T) {
	for _, name := range Names() {
		if !Registered(name) {
			t.Fatalf("%s not registered", name)
		}
		if NeedsModel(name) != (name == "rlbase") {
			t.Fatalf("NeedsModel(%s) = %v", name, NeedsModel(name))
		}
		if name == "rlbase" {
			continue
		}
		if _, err := New(name, Params{}); err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
	}
}

// TestNamesListsEveryPolicy: the names come from one fixed table, so a
// program that links this package alone still knows rlbase.
func TestNamesListsEveryPolicy(t *testing.T) {
	want := []string{"fair", "fair-proportional", "fidelity", "oracle", "rlbase", "speed", "speed-proportional"}
	if got := Names(); !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
}

// TestOracleReceivesPhi: the oracle's fidelity prediction must use the
// simulation's communication penalty, so New has to honor Params.Phi —
// a zero-value Oracle would silently score with the default φ while the
// simulation applies a different one.
func TestOracleReceivesPhi(t *testing.T) {
	pol, err := New("oracle", Params{Phi: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if o, ok := pol.(Oracle); !ok || o.Phi != 0.85 {
		t.Fatalf("oracle = %#v, want Phi 0.85", pol)
	}
}

// TestNewUnknownListsAlternatives: a typo'd name fails with the
// known names in the message, so the error alone is actionable.
func TestNewUnknownListsAlternatives(t *testing.T) {
	_, err := New("warp", Params{})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "speed") || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v, want the known names listed", err)
	}
	if Registered("warp") || NeedsModel("warp") {
		t.Fatal("unknown name must report unregistered and model-free")
	}
}

// TestNamesSorted: the listing is deterministic for error messages and
// help output.
func TestNamesSorted(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
}
