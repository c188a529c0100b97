// The benchmark is a module of its own so the engine's build and tests
// never depend on it; the import path stays under dmx/ so it may import
// dmx/internal/... read-only.
module dmx/bench

go 1.22

require dmx v0.0.0

replace dmx => ../
