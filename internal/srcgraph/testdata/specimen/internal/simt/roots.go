package simt

// stepOnce, the hot root, is referenced from this package initializer,
// a root of the unreachable check, as the real engine binds its
// per-cycle functions.
var _ = stepOnce
