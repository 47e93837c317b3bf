// apgas_launch: run an APGAS binary with one process per place.
//
//   apgas_launch -n 4 ./bench_uts
//   apgas_launch -n 8 --chaos-delay 0.3 --seed 7 ./app args
//
// The tool itself never forks the mesh — it execs the target with
// APGAS_BACKEND=socket (plus the flags translated to APGAS_* variables), and
// the target's Runtime::run hands off to launcher::run_places, which forks
// while the process is still single-threaded. That ordering is the whole
// reason this is a wrapper and not a spawner: the mesh must exist before any
// Runtime (and its threads) does, and only the target can guarantee that.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s -n <places> [options] <command> [args...]\n"
      "\n"
      "Runs <command> with one process per place over the socket backend.\n"
      "\n"
      "options:\n"
      "  -n <places>           number of place processes (required, >= 1)\n"
      "  --workers <w>         worker threads per place\n"
      "  --chaos-delay <p>     message delay probability (0..1)\n"
      "  --seed <s>            chaos RNG seed\n"
      "  --kill-place <p>      fault injection: SIGKILL place p\n"
      "  --kill-after-ms <ms>  delay before the injected kill (default 0)\n"
      "\n"
      "Each flag becomes the matching APGAS_* environment variable; flags\n"
      "already set in the environment are overridden. The sockets are\n"
      "lossless; chaos only delays and reorders messages.\n",
      argv0);
}

bool expect_value(int argc, char** argv, int i, const char* flag) {
  if (i + 1 < argc) return true;
  std::fprintf(stderr, "apgas_launch: %s needs a value\n", flag);
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  int places = -1;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "-n") {
      if (!expect_value(argc, argv, i, "-n")) return 2;
      places = std::atoi(argv[++i]);
      if (places < 1) {
        std::fprintf(stderr, "apgas_launch: -n must be >= 1 (got %s)\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--workers") {
      if (!expect_value(argc, argv, i, "--workers")) return 2;
      ::setenv("APGAS_WORKERS_PER_PLACE", argv[++i], 1);
    } else if (arg == "--chaos-delay") {
      if (!expect_value(argc, argv, i, "--chaos-delay")) return 2;
      ::setenv("APGAS_CHAOS_DELAY", argv[++i], 1);
    } else if (arg == "--seed") {
      if (!expect_value(argc, argv, i, "--seed")) return 2;
      ::setenv("APGAS_CHAOS_SEED", argv[++i], 1);
    } else if (arg == "--kill-place") {
      if (!expect_value(argc, argv, i, "--kill-place")) return 2;
      ::setenv("APGAS_LAUNCH_KILL_PLACE", argv[++i], 1);
    } else if (arg == "--kill-after-ms") {
      if (!expect_value(argc, argv, i, "--kill-after-ms")) return 2;
      ::setenv("APGAS_LAUNCH_KILL_AFTER_MS", argv[++i], 1);
    } else if (arg == "--") {
      ++i;
      break;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "apgas_launch: unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      break;  // first non-option: the command
    }
  }
  if (places < 1 || i >= argc) {
    usage(argv[0]);
    return 2;
  }

  ::setenv("APGAS_BACKEND", "socket", 1);
  ::setenv("APGAS_PLACES", std::to_string(places).c_str(), 1);

  ::execvp(argv[i], argv + i);
  std::fprintf(stderr, "apgas_launch: cannot exec %s: %s\n", argv[i],
               std::strerror(errno));
  return 127;
}
