// Frame tasks: the spawn path that crosses process boundaries.
//
// A closure cannot leave its process, so the socket backend ships spawns as
// (function id, serialized args) instead — the X10 model, where the compiler
// assigns every `at` body a stable id and serializes its captured
// environment. Here the ids come from registration order: every place
// process must register the same functions in the same order *before*
// Runtime::run, which namespace-scope initializers guarantee (registration
// happens pre-main, hence pre-fork, so parent and children agree by
// construction).
#pragma once

#include <functional>

#include "x10rt/serialization.h"

namespace apgas {

using TaskFn = std::function<void(x10rt::ByteBuffer& args)>;

/// Registers a task function; returns its stable id (see file comment for
/// the cross-process ordering contract). Not thread-safe: call from
/// namespace-scope initializers or otherwise before Runtime::run.
int register_task_fn(TaskFn fn);

/// Resolves an id to its function. Ids arrive over the wire, so an
/// out-of-range value aborts with a message rather than indexing blindly.
const TaskFn& task_fn(int id);

[[nodiscard]] int num_task_fns();

/// The reserved "local closure" task function, through which closure
/// asyncAt/at ship in-process. Its args (box_local_closure) are one boxed
/// std::function pointer, freed by the one run; a frame from another process
/// naming it is rejected as malformed.
[[nodiscard]] int local_closure_fn();
x10rt::ByteBuffer box_local_closure(std::function<void()> body);

}  // namespace apgas
