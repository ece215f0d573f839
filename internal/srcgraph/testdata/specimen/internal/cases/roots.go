package cases

// Every case is referenced from this package initializer, a root of
// the unreachable check, so that check stays quiet here and every
// finding in this package belongs to a hazard check.
var _ = []any{
	allowTwoChecks, allowTrailing, allowParenthetical, allowInBlockComment, allowWholeFunction,
	timerSurface, globalRand, seededRand,
	capturedWrite, indexWrite, localWrite, nestedGo,
	hotMapMake, hotMapLiteral, hotFreshAppend, (*warp).resolve, hotAllowed, hotPlainMake,
	step, setup, untagged, blockTagged,
	mapRangeLocalMake, (*sched).pick, mapRangeAllowed, sliceRange,
}
