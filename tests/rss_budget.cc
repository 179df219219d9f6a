/**
 * @file
 * A global gtest environment, linked into every test binary, that
 * fails the binary when its peak resident set exceeds 1 GiB. No test
 * needs that much: a structure that allocates in proportion to its
 * logical size (an 8 GB ORAM, say) shows up here rather than as an
 * out-of-memory kill of a parallel ctest run.
 *
 * Compiled out under ASan and TSan, whose shadow memory inflates RSS.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OBFUSMEM_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OBFUSMEM_SHADOW_MEMORY 1
#endif
#endif

#ifndef OBFUSMEM_SHADOW_MEMORY

namespace {

class RssBudget : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        constexpr long kBudgetKiB = 1L << 20;
        rusage usage{};
        ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
        EXPECT_LE(usage.ru_maxrss, kBudgetKiB)
            << "peak RSS " << usage.ru_maxrss / 1024
            << " MiB exceeds the 1 GiB test budget";
    }
};

const auto *const rssBudget =
    ::testing::AddGlobalTestEnvironment(new RssBudget);

} // namespace

#endif
