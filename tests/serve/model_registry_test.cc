#include "serve/model_registry.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "../test_util.h"
#include "core/model_io.h"
#include "core/mp_trainer.h"

namespace gmpsvm {
namespace {

using ::gmpsvm::testing::MakeMulticlassBlobs;

MpSvmModel TrainSmallModel(uint64_t seed) {
  auto data = ValueOrDie(MakeMulticlassBlobs(3, 15, 5, 2.5, seed));
  MpTrainOptions options;
  options.kernel.gamma = 0.3;
  options.batch.working_set.ws_size = 16;
  options.batch.working_set.q = 8;
  SimExecutor exec(ExecutorModel::TeslaP100());
  return ValueOrDie(GmpSvmTrainer(options).Train(data, &exec, nullptr));
}

TEST(ModelRegistryTest, RegisterAndGet) {
  ModelRegistry registry;
  const int64_t version = ValueOrDie(registry.Register("m", TrainSmallModel(1)));
  EXPECT_EQ(version, 1);
  auto handle = ValueOrDie(registry.Get("m"));
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(handle.version, 1);
  EXPECT_EQ(handle.name, "m");
  EXPECT_EQ(handle.model->num_classes, 3);
}

TEST(ModelRegistryTest, UnknownNameFails) {
  ModelRegistry registry;
  auto handle = registry.Get("missing");
  EXPECT_FALSE(handle.ok());
  EXPECT_TRUE(handle.status().IsFailedPrecondition());
}

TEST(ModelRegistryTest, RejectsEmptyModel) {
  ModelRegistry registry;
  auto result = registry.Register("empty", MpSvmModel{});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ModelRegistryTest, HotSwapBumpsVersionAndOldHandleSurvives) {
  ModelRegistry registry;
  ValueOrDie(registry.Register("m", TrainSmallModel(1)));
  auto old_handle = ValueOrDie(registry.Get("m"));

  EXPECT_EQ(ValueOrDie(registry.Register("m", TrainSmallModel(2))), 2);
  auto new_handle = ValueOrDie(registry.Get("m"));
  EXPECT_EQ(new_handle.version, 2);
  EXPECT_NE(old_handle.model.get(), new_handle.model.get());

  // The old snapshot remains fully usable (in-flight batches).
  EXPECT_EQ(old_handle.version, 1);
  EXPECT_EQ(old_handle.model->num_classes, 3);
  EXPECT_GT(old_handle.model->pool_size(), 0);
}

TEST(ModelRegistryTest, SizeCountsNames) {
  ModelRegistry registry;
  ValueOrDie(registry.Register("b", TrainSmallModel(1)));
  ValueOrDie(registry.Register("a", TrainSmallModel(2)));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(ModelRegistryTest, LoadFromFile) {
  MpSvmModel model = TrainSmallModel(5);
  const std::string path = ::testing::TempDir() + "/registry_model.txt";
  GMP_CHECK_OK(SaveModel(model, path));

  ModelRegistry registry;
  EXPECT_EQ(ValueOrDie(registry.LoadFromFile("disk", path)), 1);
  auto handle = ValueOrDie(registry.Get("disk"));
  EXPECT_EQ(handle.model->num_classes, model.num_classes);
  EXPECT_EQ(handle.model->pool_size(), model.pool_size());
  std::remove(path.c_str());

  auto missing = registry.LoadFromFile("nope", "/nonexistent/model.txt");
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsIoError());
}

}  // namespace
}  // namespace gmpsvm
