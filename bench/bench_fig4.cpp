// Reproduces Fig. 4: spread of the synthetic data generated by ZKA-R vs
// ZKA-G on Fashion. The paper shows a UMAP scatter; the claim is that
// ZKA-R's set has visibly higher variance, which we quantify with a PCA
// projection (variance-preserving; see DESIGN.md) plus per-feature
// variance statistics, printing both the projection extents and the
// variance ratio.
#include "analysis/pca.h"
#include "bench_common.h"
#include "core/zka_g.h"
#include "core/zka_r.h"
#include "data/local_sgd.h"
#include "nn/module.h"

int main(int argc, char** argv) {
  using namespace zka;
  const util::CliArgs args(argc, argv);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int64("seed", 1));
  const std::int64_t s_size = args.get_int64("size", 50);  // paper: |S| = 50
  const bench::Trace trace(args);

  const models::Task task = models::Task::kFashion;
  const auto factory = models::task_model_factory(task);
  const std::vector<float> global = nn::get_flat_params(*factory(seed));

  // The classifier replicas both attacks craft on.
  data::ReplicaSet replicas(factory);

  attack::AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  ctx.replicas = &replicas;

  core::ZkaOptions zka = bench::default_zka_options(task);
  zka.synthetic_size = s_size;

  core::ZkaRAttack zka_r(task, zka, seed);
  zka_r.craft(ctx);
  core::ZkaGAttack zka_g(task, zka, seed);
  zka_g.craft(ctx);

  const tensor::Tensor& images_r = zka_r.last_synthetic_images();
  const tensor::Tensor& images_g = zka_g.last_synthetic_images();

  const analysis::PcaResult pca_r = analysis::pca_project(images_r, 2);
  const analysis::PcaResult pca_g = analysis::pca_project(images_g, 2);
  const double var_r = analysis::mean_feature_variance(images_r);
  const double var_g = analysis::mean_feature_variance(images_g);

  util::Table table({"Variant", "|S|", "PC1 variance", "PC2 variance",
                     "total variance", "mean feature variance"});
  table.add_row({"ZKA-R", std::to_string(s_size),
                 util::Table::fmt(pca_r.component_variance[0], 3),
                 util::Table::fmt(pca_r.component_variance[1], 3),
                 util::Table::fmt(pca_r.total_variance, 3),
                 util::Table::fmt(var_r, 5)});
  table.add_row({"ZKA-G", std::to_string(s_size),
                 util::Table::fmt(pca_g.component_variance[0], 3),
                 util::Table::fmt(pca_g.component_variance[1], 3),
                 util::Table::fmt(pca_g.total_variance, 3),
                 util::Table::fmt(var_g, 5)});
  table.print("\nFig. 4 — synthetic-data spread, ZKA-R vs ZKA-G (Fashion)");
  std::printf("variance ratio ZKA-R / ZKA-G: %.2fx  (paper: ZKA-R wider)\n",
              var_r / var_g);

  // 2-D projection coordinates (the scatter itself) as CSV on request.
  const std::string path = args.get_string("csv", "");
  if (!path.empty()) {
    util::Table scatter({"variant", "x", "y"});
    for (std::int64_t i = 0; i < pca_r.projection.dim(0); ++i) {
      scatter.add_row({"ZKA-R",
                       util::Table::fmt(pca_r.projection[i * 2], 4),
                       util::Table::fmt(pca_r.projection[i * 2 + 1], 4)});
    }
    for (std::int64_t i = 0; i < pca_g.projection.dim(0); ++i) {
      scatter.add_row({"ZKA-G",
                       util::Table::fmt(pca_g.projection[i * 2], 4),
                       util::Table::fmt(pca_g.projection[i * 2 + 1], 4)});
    }
    scatter.write_csv(path);
    std::printf("wrote %s\n", path.c_str());
  }
  trace.write();
  return 0;
}
