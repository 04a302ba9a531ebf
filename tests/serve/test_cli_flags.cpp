// ides_cli's flag parser: a flag it does not know fails the whole command
// with "unknown flag" instead of being ignored. Runs the built ides_cli, so
// it exists only when the examples are part of the build.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace ides {
namespace {

#ifdef IDES_CLI_PATH

struct CliRun {
  int exitCode = -1;
  std::string output;  ///< stdout and stderr, interleaved
};

CliRun runCli(const std::string& arguments) {
  const std::string command =
      std::string("\"") + IDES_CLI_PATH + "\" " + arguments + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    run.output += buffer;
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exitCode = WEXITSTATUS(status);
  return run;
}

TEST(CliFlags, RemovedSpeculationFlagsAreUnknown) {
  for (const char* flag : {"--spec-workers", "--spec-depth"}) {
    const CliRun run = runCli(std::string("design ") + flag + " 2");
    EXPECT_NE(run.exitCode, 0) << flag;
    EXPECT_NE(run.output.find(std::string("unknown flag: ") + flag),
              std::string::npos)
        << run.output;
  }
}

#endif  // IDES_CLI_PATH

}  // namespace
}  // namespace ides
