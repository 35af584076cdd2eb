// Mining your own data: the CSV round trip.
//
// This example writes a small CSV to a temp file (standing in for "your
// data"), loads it back with type inference, declares which columns are the
// real-valued targets, and mines the most informative subgroup. This is the
// template to follow for using the library on arbitrary tabular files.

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/session.hpp"
#include "data/csv.hpp"
#include "datagen/crime.hpp"

int main() {
  using namespace sisd;

  // --- Pretend this file came from the user -------------------------------
  // (A thinned crime-like table so the example runs in milliseconds.)
  const datagen::CrimeData generated = datagen::MakeCrimeLike(
      {.num_rows = 400, .num_descriptions = 10, .seed = 123});
  data::DataTable export_table;
  export_table
      .AddColumn(data::Column::Numeric(
          "crime_rate",
          [&] {
            std::vector<double> v(generated.dataset.num_rows());
            for (size_t i = 0; i < v.size(); ++i) {
              v[i] = generated.dataset.targets(i, 0);
            }
            return v;
          }()))
      .CheckOK();
  for (size_t j = 0; j < generated.dataset.num_descriptions(); ++j) {
    export_table.AddColumn(generated.dataset.descriptions.column(j))
        .CheckOK();
  }
  const std::string path = "/tmp/sisd_example_data.csv";
  data::WriteCsvFile(export_table, path).CheckOK();
  std::printf("wrote %zu rows to %s\n", export_table.num_rows(),
              path.c_str());

  // --- Load it back and mine ----------------------------------------------
  Result<data::DataTable> table = data::ReadCsvFile(path);
  table.status().CheckOK();
  std::printf("read back %zu rows x %zu columns (types inferred)\n",
              table.Value().num_rows(), table.Value().num_columns());

  // Declare the target column(s); everything else becomes a description.
  Result<data::Dataset> dataset =
      data::MakeDataset(table.Value(), {"crime_rate"}, "my-csv-data");
  dataset.status().CheckOK();

  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(std::move(dataset).MoveValue(), config);
  session.status().CheckOK();

  Result<core::IterationResult> result = session.Value().MineNext();
  result.status().CheckOK();
  std::printf("\nmost informative subgroup:\n  %s\n",
              result.Value()
                  .location.Describe(session.Value().dataset().descriptions)
                  .c_str());

  std::remove(path.c_str());
  return 0;
}
