package service

// The cases are referenced from this package initializer, a root of
// the unreachable check, so that check stays quiet here.
var _ = []any{lastSeen, (*JobSpec).Canonical, (*FullSpec).Canonical}
