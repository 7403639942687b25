/**
 * @file
 * Every SIMD tier of the fast functional-GEMM backend must produce
 * results bit-identical to the scalar tier — for all five datatype
 * combinations, at odd shapes that straddle every vector width and
 * block size, with per-step f16 rounding on and off, and at every
 * thread count. The scalar tier itself is pinned to the retained
 * scalar reference in fast_gemm_test.cc, so together the two suites
 * tie every tier to the original arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "blas/fast_gemm.hh"
#include "blas/functional.hh"
#include "blas/level3.hh"
#include "blas/simd_dispatch.hh"
#include "blas/simd_kernels.hh"
#include "common/random.hh"

namespace mc {
namespace blas {
namespace {

template <typename T>
Matrix<T>
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix<T> m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = T(static_cast<float>(rng.uniform(-1.0, 1.0)));
    return m;
}

template <typename T>
::testing::AssertionResult
bitIdentical(const Matrix<T> &x, const Matrix<T> &y)
{
    if (x.rows() != y.rows() || x.cols() != y.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    if (std::memcmp(x.data(), y.data(),
                    x.rows() * x.cols() * sizeof(T)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < x.rows(); ++i)
        for (std::size_t j = 0; j < x.cols(); ++j)
            if (std::memcmp(&x(i, j), &y(i, j), sizeof(T)) != 0)
                return ::testing::AssertionFailure()
                       << "first differing element at (" << i << ", "
                       << j << ")";
    return ::testing::AssertionFailure() << "memcmp/element disagree";
}

struct Shape
{
    std::size_t m, n, k;
};

/** n values straddle every vector width (4, 8, 16 f32 lanes) with odd
 *  tails; the last shape crosses the block sizes below as well. */
const Shape kShapes[] = {
    {1, 1, 1},   {3, 5, 7},     {7, 15, 9},  {9, 17, 23},
    {13, 31, 8}, {21, 33, 19},  {27, 47, 29}, {67, 129, 65},
};

FunctionalGemmOptions
tierOptions(SimdTier tier, int threads)
{
    FunctionalGemmOptions opts;
    opts.simd = tier;
    opts.threads = threads;
    opts.blockM = 16;
    opts.blockN = 24;
    opts.blockK = 40;
    return opts;
}

class SimdTierTest : public ::testing::TestWithParam<SimdTier>
{
};

template <typename TCD, typename TAB, typename TAcc>
void
expectTierMatchesScalarTier(SimdTier tier, bool round_each_step)
{
    for (const Shape &s : kShapes) {
        Rng rng(0xca11 + s.m * 131 + s.n * 17 + s.k);
        const auto a = randomMatrix<TAB>(rng, s.m, s.k);
        const auto b = randomMatrix<TAB>(rng, s.k, s.n);
        const auto c = randomMatrix<TCD>(rng, s.m, s.n);

        Matrix<TCD> d_scalar(s.m, s.n);
        fastReferenceGemm<TCD, TAB, TAcc>(
            1.25, a, b, -0.5, c, d_scalar, round_each_step,
            tierOptions(SimdTier::Scalar, 1));

        for (int threads : {1, 2, 8}) {
            Matrix<TCD> d_tier(s.m, s.n);
            fastReferenceGemm<TCD, TAB, TAcc>(
                1.25, a, b, -0.5, c, d_tier, round_each_step,
                tierOptions(tier, threads));
            EXPECT_TRUE(bitIdentical(d_scalar, d_tier))
                << "tier=" << simdTierName(tier) << " shape " << s.m
                << "x" << s.n << "x" << s.k << " threads=" << threads
                << " round_each_step=" << round_each_step;
        }
    }
}

TEST_P(SimdTierTest, Dgemm)
{
    expectTierMatchesScalarTier<double, double, double>(GetParam(),
                                                        false);
}

TEST_P(SimdTierTest, Sgemm)
{
    expectTierMatchesScalarTier<float, float, float>(GetParam(), false);
}

TEST_P(SimdTierTest, HgemmRoundsEachStep)
{
    expectTierMatchesScalarTier<fp::Half, fp::Half, float>(GetParam(),
                                                           true);
}

TEST_P(SimdTierTest, Hhs)
{
    expectTierMatchesScalarTier<fp::Half, fp::Half, float>(GetParam(),
                                                           false);
}

TEST_P(SimdTierTest, Hss)
{
    expectTierMatchesScalarTier<float, fp::Half, float>(GetParam(),
                                                        false);
}

TEST_P(SimdTierTest, Bf16OperandPacking)
{
    expectTierMatchesScalarTier<float, fp::BFloat16, float>(GetParam(),
                                                            false);
}

TEST_P(SimdTierTest, TrsmMatchesScalarTier)
{
    const SimdTier tier = GetParam();
    for (const bool lower : {true, false}) {
        const std::size_t m = 37, n = 43;
        Rng rng(0x3a0 + (lower ? 1 : 0));
        auto a = randomMatrix<double>(rng, m, m);
        for (std::size_t i = 0; i < m; ++i)
            a(i, i) = 2.0 + a(i, i);
        const auto b0 = randomMatrix<double>(rng, m, n);

        const Fill fill = lower ? Fill::Lower : Fill::Upper;
        Matrix<double> b_scalar = b0;
        referenceTrsmLeft(fill, false, 0.75, a, b_scalar,
                          tierOptions(SimdTier::Scalar, 1));
        for (int threads : {1, 8}) {
            Matrix<double> b_t = b0;
            referenceTrsmLeft(fill, false, 0.75, a, b_t,
                              tierOptions(tier, threads));
            EXPECT_TRUE(bitIdentical(b_scalar, b_t))
                << "tier=" << simdTierName(tier) << " lower=" << lower
                << " threads=" << threads;
        }
    }
}

TEST_P(SimdTierTest, SyrkMatchesScalarTier)
{
    const SimdTier tier = GetParam();
    for (const bool lower : {true, false}) {
        const std::size_t n = 41, k = 23;
        Rng rng(0x5e0 + (lower ? 1 : 0));
        const auto a = randomMatrix<double>(rng, n, k);
        const auto c0 = randomMatrix<double>(rng, n, n);

        const Fill fill = lower ? Fill::Lower : Fill::Upper;
        Matrix<double> c_scalar = c0;
        referenceSyrk(fill, -1.0, a, 1.0, c_scalar,
                      tierOptions(SimdTier::Scalar, 1));
        for (int threads : {1, 8}) {
            Matrix<double> c_t = c0;
            referenceSyrk(fill, -1.0, a, 1.0, c_t,
                          tierOptions(tier, threads));
            EXPECT_TRUE(bitIdentical(c_scalar, c_t))
                << "tier=" << simdTierName(tier) << " lower=" << lower
                << " threads=" << threads;
        }
    }
}

std::uint32_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

float
bitsToFloat(std::uint32_t u)
{
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

/**
 * The round-each-step chain at the kernel level, against the scalar
 * tier's retained loop: column scenarios drive accumulators to +-Inf
 * (past 65504), NaN (Inf - Inf; a NaN start, signaling or quiet with a
 * payload), half subnormals and -0 (tiny negatives round to it), and
 * panel widths 1, 15, 17, 63, 65 straddle every four-vector group,
 * single-vector group and scalar tail. No product is ever NaN, so no
 * add sees two NaNs whose payload choice could depend on operand order.
 */
TEST_P(SimdTierTest, RoundHalfChainSpecialValues)
{
    const SimdKernels &tier = simdKernels(GetParam());
    const SimdKernels &scalar = simdKernels(SimdTier::Scalar);
    constexpr std::size_t kNk = 24, kLdb = 72;
    const float inf = std::numeric_limits<float>::infinity();
    Rng rng(0xf16c);
    std::vector<float> arow(kNk);
    for (std::size_t kk = 0; kk < kNk; ++kk)
        arow[kk] = (kk % 7 == 3 ? -1.0f : 1.0f) *
                   (0.5f + 0.0625f * static_cast<float>(kk));
    std::vector<float> bpanel(kNk * kLdb);
    std::vector<float> start(kLdb);
    for (std::size_t j = 0; j < kLdb; ++j) {
        const std::size_t scenario = j % 6;
        for (std::size_t kk = 0; kk < kNk; ++kk) {
            const float sign_a = arow[kk] < 0.0f ? -1.0f : 1.0f;
            const float r = static_cast<float>(rng.uniform(0.25, 1.0));
            float v = 0.0f;
            switch (scenario) {
              case 0: // overflow to +Inf, then +Inf - Inf = NaN
                v = sign_a * 4096.0f * r;
                if (j % 12 == 0 && kk == kNk - 3)
                    v = -sign_a * inf;
                break;
              case 1: // overflow to -Inf
                v = -sign_a * 4096.0f * r;
                break;
              case 2: // half subnormals, both signs
                v = static_cast<float>(rng.uniform(-3e-5, 3e-5));
                break;
              case 3: // tiny negatives: -0 + p rounds back to -0
                v = -sign_a * 1e-9f * r;
                break;
              case 4: // a NaN start propagates
                v = static_cast<float>(rng.uniform(-1.0, 1.0));
                break;
              default: // ordinary rounding, one Inf operand
                v = static_cast<float>(rng.uniform(-1.0, 1.0));
                if (j % 12 == 5 && kk == 4)
                    v = inf;
                break;
            }
            if (v == 0.0f)
                v = 0.5f;
            bpanel[kk * kLdb + j] = v;
        }
        const float starts[] = {60000.0f, -60000.0f, 0.0f, -0.0f,
                                bitsToFloat(j % 12 == 4 ? 0x7fa00000u
                                                        : 0xffd5a000u),
                                bitsToFloat(0x00000001u)};
        start[j] = starts[scenario];
    }

    bool saw_pinf = false, saw_ninf = false, saw_nan = false;
    bool saw_subnormal = false, saw_negzero = false;
    for (std::size_t nj : {1, 15, 17, 63, 65}) {
        std::vector<float> want = start, got = start;
        scalar.axpyRoundHalfF32(arow.data(), bpanel.data(), kLdb, kNk,
                                want.data(), nj);
        tier.axpyRoundHalfF32(arow.data(), bpanel.data(), kLdb, kNk,
                              got.data(), nj);
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              kLdb * sizeof(float)),
                  0)
            << "tier=" << simdTierName(GetParam()) << " nj=" << nj;
        for (std::size_t j = 0; j < nj; ++j) {
            const float v = want[j];
            saw_pinf |= v == inf;
            saw_ninf |= v == -inf;
            saw_nan |= v != v;
            saw_subnormal |= v != 0.0f && std::fabs(v) < 6.103515625e-05f;
            saw_negzero |= floatBits(v) == 0x80000000u;
        }
    }
    // The scenarios above must actually reach every special class.
    EXPECT_TRUE(saw_pinf && saw_ninf && saw_nan && saw_subnormal &&
                saw_negzero);
}

/** One chain step from every binary16 value: acc + (-0) is exact, so
 *  the step is the round trip alone, and the tier's widen must agree
 *  with Half::toFloat on everything a narrow can produce. */
TEST_P(SimdTierTest, RoundHalfChainKeepsEveryHalfValue)
{
    constexpr std::size_t kHalves = 1u << 16;
    std::vector<float> start(kHalves), bpanel(kHalves, 0.0f);
    for (std::size_t h = 0; h < kHalves; ++h)
        start[h] = fp::Half::fromBits(static_cast<std::uint16_t>(h))
                       .toFloat();
    const float arow[] = {-0.0f};
    std::vector<float> want = start, got = start;
    simdKernels(SimdTier::Scalar)
        .axpyRoundHalfF32(arow, bpanel.data(), kHalves, 1, want.data(),
                          kHalves);
    simdKernels(GetParam())
        .axpyRoundHalfF32(arow, bpanel.data(), kHalves, 1, got.data(),
                          kHalves);
    for (std::size_t h = 0; h < kHalves; ++h)
        ASSERT_EQ(floatBits(got[h]), floatBits(want[h]))
            << "tier=" << simdTierName(GetParam()) << " h=0x" << std::hex
            << h;
}

/** The tier knob must not leak into the retained scalar reference:
 *  the scalar tier itself reproduces scalarReferenceGemm exactly. */
TEST(SimdTierAnchor, ScalarTierMatchesScalarReference)
{
    const Shape s{27, 47, 29};
    Rng rng(0xbeef);
    const auto a = randomMatrix<fp::Half>(rng, s.m, s.k);
    const auto b = randomMatrix<fp::Half>(rng, s.k, s.n);
    const auto c = randomMatrix<fp::Half>(rng, s.m, s.n);

    for (const bool round_each_step : {false, true}) {
        Matrix<fp::Half> d_ref(s.m, s.n), d_scalar_tier(s.m, s.n);
        scalarReferenceGemm<fp::Half, fp::Half, float>(
            1.25, a, b, -0.5, c, d_ref, round_each_step);
        fastReferenceGemm<fp::Half, fp::Half, float>(
            1.25, a, b, -0.5, c, d_scalar_tier, round_each_step,
            tierOptions(SimdTier::Scalar, 1));
        EXPECT_TRUE(bitIdentical(d_ref, d_scalar_tier))
            << "round_each_step=" << round_each_step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AvailableTiers, SimdTierTest,
    ::testing::ValuesIn(availableSimdTiers()),
    [](const ::testing::TestParamInfo<SimdTier> &info) {
        return std::string(simdTierName(info.param));
    });

} // namespace
} // namespace blas
} // namespace mc
