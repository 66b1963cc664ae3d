#include "data/csv.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>

#include "temp_dir.h"
#include "tensor/ops.h"

namespace apds {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  std::string path(const std::string& n) const { return dir_.file(n); }
  const TempDir dir_{"apds_csv_test"};
};

TEST_F(CsvTest, RoundTripWithoutHeader) {
  Matrix m{{1.5, -2.0}, {3.25, 4.0}};
  write_csv(path("a.csv"), m);
  const Matrix back = read_csv(path("a.csv"));
  EXPECT_LT(max_abs_diff(back, m), 1e-9);
}

TEST_F(CsvTest, RoundTripWithHeader) {
  Matrix m{{1.0, 2.0}};
  const std::string header[] = {"alpha", "beta"};
  write_csv(path("b.csv"), m, header);
  const Matrix back = read_csv(path("b.csv"), /*skip_header=*/true);
  EXPECT_EQ(back.rows(), 1u);
  EXPECT_EQ(back.cols(), 2u);
}

TEST_F(CsvTest, HeaderWidthValidated) {
  const std::string header[] = {"only_one"};
  EXPECT_THROW(write_csv(path("c.csv"), Matrix(1, 2), header),
               InvalidArgument);
}

TEST_F(CsvTest, MissingFileThrows) {
  EXPECT_THROW(read_csv(path("nope.csv")), IoError);
}

TEST_F(CsvTest, RaggedRowsRejected) {
  std::ofstream os(path("ragged.csv"));
  os << "1,2,3\n4,5\n";
  os.close();
  EXPECT_THROW(read_csv(path("ragged.csv")), IoError);
}

TEST_F(CsvTest, NonNumericCellRejected) {
  std::ofstream os(path("text.csv"));
  os << "1,banana\n";
  os.close();
  EXPECT_THROW(read_csv(path("text.csv")), IoError);
}

TEST_F(CsvTest, NonFiniteCellRejectedWithLineAndColumn) {
  // Header line, a blank line, then the bad cell in column 2 of line 4.
  for (const char* bad : {"nan", "inf", "-Infinity", "1e999"}) {
    SCOPED_TRACE(bad);
    std::ofstream os(path("nonfinite.csv"));
    os << "a,b\n1,2\n\n3," << bad << "\n";
    os.close();
    try {
      read_csv(path("nonfinite.csv"), /*skip_header=*/true);
      ADD_FAILURE() << "accepted " << bad;
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path("nonfinite.csv")), std::string::npos) << what;
      EXPECT_NE(what.find("line 4"), std::string::npos) << what;
      EXPECT_NE(what.find("column 2"), std::string::npos) << what;
    }
  }
}

TEST_F(CsvTest, RaggedRowErrorNamesTheLine) {
  std::ofstream os(path("ragged_at.csv"));
  os << "a,b,c\n1,2,3\n\n4,5\n";  // the short row is physical line 4
  os.close();
  try {
    read_csv(path("ragged_at.csv"), /*skip_header=*/true);
    ADD_FAILURE() << "accepted a ragged row";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ragged row"), std::string::npos) << what;
    EXPECT_NE(what.find(path("ragged_at.csv")), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  }
}

TEST_F(CsvTest, NonNumericCellErrorNamesLineAndColumn) {
  std::ofstream os(path("text_at.csv"));
  os << "1,2,3\n4,5,banana\n";
  os.close();
  try {
    read_csv(path("text_at.csv"));
    ADD_FAILURE() << "accepted a non-numeric cell";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("non-numeric cell 'banana'"), std::string::npos)
        << what;
    EXPECT_NE(what.find(path("text_at.csv")), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("column 3"), std::string::npos) << what;
  }
}

TEST_F(CsvTest, FiniteUnderflowAccepted) {
  std::ofstream os(path("tiny.csv"));
  os << "1e-400,1\n";
  os.close();
  const Matrix m = read_csv(path("tiny.csv"));
  EXPECT_TRUE(std::isfinite(m(0, 0)));
  EXPECT_EQ(m(0, 1), 1.0);
}

TEST_F(CsvTest, BlankLinesSkipped) {
  std::ofstream os(path("blank.csv"));
  os << "1,2\n\n3,4\n  \n";
  os.close();
  const Matrix m = read_csv(path("blank.csv"));
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST_F(CsvTest, WhitespaceAroundNumbersTolerated) {
  std::ofstream os(path("ws.csv"));
  os << " 1 , 2.5\n";
  os.close();
  const Matrix m = read_csv(path("ws.csv"));
  EXPECT_EQ(m(0, 1), 2.5);
}

TEST_F(CsvTest, PreservesPrecision) {
  Matrix m{{1.23456789012, -9.87654321098}};
  write_csv(path("prec.csv"), m);
  const Matrix back = read_csv(path("prec.csv"));
  EXPECT_LT(max_abs_diff(back, m), 1e-10);
}

}  // namespace
}  // namespace apds
