/**
 * @file
 * The figure registry behind tools/rrbench: every figure source in
 * bench/ registers one figure function at static-initialization time with
 * the RR_BENCH_FIGURE macro, and the driver discovers, filters, and
 * runs them through a single interface — no per-binary main()
 * boilerplate.
 *
 *   RR_BENCH_FIGURE(fig5_cache,
 *                   "Figure 5 — cache faults: efficiency vs memory "
 *                   "latency")
 *   {
 *       ctx.text("...");
 *       ctx.panel("panel_a", "...", exp::sweepPanel(...));
 *   }
 *
 * Figures are listed and executed in name order regardless of link
 * order, so --list output and run order are deterministic.
 */

#ifndef RR_EXP_REGISTRY_HH
#define RR_EXP_REGISTRY_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/report.hh"

namespace rr::exp {

/** A figure body: fills the report through the builder. */
using FigureFn = std::function<void(ReportBuilder &ctx)>;

/** One registered figure. */
struct FigureInfo
{
    std::string name;  ///< registry key; also names BENCH_<name>.json
    std::string title; ///< one-line description (--list)
    FigureFn fn;
};

/** The process-wide figure registry. */
class Registry
{
  public:
    static Registry &instance();

    /** Register a figure (called by the RR_BENCH_FIGURE macro). */
    void add(FigureInfo info);

    /** All figures, sorted by name. */
    std::vector<FigureInfo> figures() const;

    /** Run one figure and return its completed report. */
    static Report run(const FigureInfo &figure, const RunMeta &run);

  private:
    std::vector<FigureInfo> figures_;
};

/** Static registrar used by RR_BENCH_FIGURE. */
struct FigureRegistrar
{
    FigureRegistrar(const char *name, const char *title, FigureFn fn)
    {
        Registry::instance().add({name, title, std::move(fn)});
    }
};

} // namespace rr::exp

/**
 * Define and register the figure function for @p name. The function
 * body follows the macro and receives `rr::exp::ReportBuilder &ctx`.
 */
#define RR_BENCH_FIGURE(name, title)                                   \
    static void rr_bench_figure_##name(::rr::exp::ReportBuilder &ctx); \
    static const ::rr::exp::FigureRegistrar rr_bench_registrar_##name{ \
        #name, title, &rr_bench_figure_##name};                        \
    static void rr_bench_figure_##name(::rr::exp::ReportBuilder &ctx)

#endif // RR_EXP_REGISTRY_HH
