package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// kind is one of runner's enums: values numbered from 1 with no gaps, each
// named by String, which renders values past the last as "Type(n)".
type kind interface {
	~int
	fmt.Stringer
}

// kinds lists every value of E in order.
func kinds[E kind]() []E {
	var all []E
	for e := E(1); !strings.HasSuffix(e.String(), fmt.Sprintf("(%d)", int(e))); e++ {
		all = append(all, e)
	}
	return all
}

// usage is the help text of the flag selecting a value of E.
func usage[E kind](what string) string {
	var names []string
	for _, e := range kinds[E]() {
		names = append(names, e.String())
	}
	return what + ": " + strings.Join(names, " | ")
}

// parseKind returns the value of E that String names s.
func parseKind[E kind](what, s string) (E, error) {
	for _, e := range kinds[E]() {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", what, s)
}

func sortedKeys(m map[types.ProcessID]types.Value) []types.ProcessID {
	keys := make([]types.ProcessID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
