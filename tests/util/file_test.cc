#include "util/file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace staq::util {
namespace {

TEST(ReadFileTest, ReadsEveryByte) {
  const std::string path = ::testing::TempDir() + "/read_file_test.bin";
  std::string bytes(10000, 'x');
  bytes[0] = '\0';
  bytes[9999] = '\n';
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  auto text = ReadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text.value(), bytes);
}

TEST(ReadFileTest, MissingFilesAndDirectoriesAreIoErrors) {
  auto missing = ReadFile("/nonexistent/read_file_test", "config");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  EXPECT_EQ(missing.status().message().find("cannot open config: "), 0u)
      << missing.status();

  // A directory opens but fails to read.
  auto directory = ReadFile(::testing::TempDir(), "pack");
  ASSERT_FALSE(directory.ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kIoError);
  EXPECT_EQ(directory.status().message().find("cannot read pack: "), 0u)
      << directory.status();
}

}  // namespace
}  // namespace staq::util
