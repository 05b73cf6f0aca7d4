package tcpnet

// The package's test helpers, for its external tests (package tcpnet_test),
// which build their rigs with internal/node — a package that imports this
// one.
const RaceEnabled = raceEnabled

var (
	FillCells  = fillCells
	TestConfig = testConfig
)
